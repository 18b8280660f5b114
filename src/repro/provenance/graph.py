"""The derivation dependency graph.

Provenance in the virtual data model is a bipartite directed acyclic
graph: *dataset* nodes and *derivation* nodes, with edges

    input dataset -> derivation -> output dataset.

"When a derivation uses as input the output of a previous derivation, a
dependency graph is created." (Appendix A)

:class:`DerivationGraph` holds that graph as four name-keyed adjacency
maps (dataset -> producers / consumers, derivation -> inputs / outputs)
and provides the traversals every other provenance feature builds on:
ancestry, descent, topological order, cycle detection, and
target-rooted subgraphs.  :class:`Node` objects exist only at the
traversal API; nothing is stored per node.

A catalog keeps one such graph current as its derivation index
(``catalog.derivation_graph()``, see :mod:`repro.catalog.index`);
:meth:`DerivationGraph.from_catalog` builds an independent snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.derivation import Derivation
from repro.core.topology import topological_levels
from repro.errors import CyclicDerivationError

#: Node kinds in the bipartite graph.
DATASET = "dataset"
DERIVATION = "derivation"

#: A dataset's producer or consumer names are a tuple up to this many,
#: a set beyond.  Most datasets have one producer and a few consumers,
#: and a tuple of one name takes under a quarter of the bytes of an
#: empty set; the set keeps linking and unlinking a name O(1) for the rare
#: dataset a whole campaign reads.
TUPLE_DEGREE = 8


def _linked(names: tuple | set, name: str) -> tuple | set:
    """``names`` with ``name`` added (the same object once it is a set)."""
    if type(names) is tuple:
        if name in names:
            return names
        if len(names) < TUPLE_DEGREE:
            return names + (name,)
        names = set(names)
    names.add(name)
    return names


def _unlinked(names: tuple | set, name: str) -> tuple | set:
    """``names`` without ``name`` (the same object when it is a set)."""
    if type(names) is tuple:
        return tuple(n for n in names if n != name)
    names.discard(name)
    return names


@dataclass(frozen=True)
class Node:
    """A graph node: a dataset or a derivation, by name."""

    kind: str
    name: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


def dataset_node(name: str) -> Node:
    return Node(DATASET, name)


def derivation_node(name: str) -> Node:
    return Node(DERIVATION, name)


class DerivationGraph:
    """A bipartite provenance graph over datasets and derivations."""

    def __init__(self, derivations: Iterable[Derivation] = ()):
        #: dataset -> names of the derivations writing / reading it, a
        #: tuple or a set (see :data:`TUPLE_DEGREE`).  Every dataset node
        #: has an entry in both maps.
        self._producers: dict[str, tuple | set] = {}
        self._consumers: dict[str, tuple | set] = {}
        #: derivation -> names of the datasets it reads / writes, sorted
        #: where the catalog links them (no walk depends on the hash seed).
        self._inputs: dict[str, tuple[str, ...]] = {}
        self._outputs: dict[str, tuple[str, ...]] = {}
        #: name -> Derivation, once loaded through :meth:`derivation`.
        self._decoded: dict[str, Derivation] = {}
        #: Loader for lazy nodes (typically the catalog's record read).
        self._loader: Optional[Callable[[str], Derivation]] = None
        #: Whether what the loader returns is kept in :attr:`_decoded`.
        self._keep = True
        for dv in derivations:
            self.add_derivation(dv)

    @classmethod
    def from_catalog(cls, catalog) -> "DerivationGraph":
        """Build a snapshot graph over every derivation in a catalog.

        A full scan of storage, independent of the live graph the
        catalog maintains: edges come straight off the stored records
        (or the documents a document backend loads), and the Derivation
        objects are read lazily on first access.
        """
        from repro.catalog.payloads import derivation_edges

        graph = cls()
        loader = getattr(catalog, "_load_derivation", None)
        graph.set_loader(loader or catalog.get_derivation)
        for key, entry in catalog._scan("derivation"):
            inputs, outputs, _ = derivation_edges(entry)
            graph.add_derivation_edges(key, inputs, outputs)
        return graph

    # -- construction ------------------------------------------------------

    def add_derivation(self, dv: Derivation) -> None:
        """Add a derivation and its dataset edges."""
        self.add_derivation_edges(dv.name, dv.inputs(), dv.outputs())
        self._decoded[dv.name] = dv

    def set_loader(
        self, loader: Callable[[str], Derivation], keep: bool = True
    ) -> None:
        """Install the loader lazy nodes resolve through.

        ``keep=False`` when the loader is as cheap as a lookup here (a
        memory catalog's store): the graph then holds no second
        reference per derivation.
        """
        self._loader = loader
        self._keep = keep

    def add_derivation_edges(
        self, name: str, inputs: Iterable[str], outputs: Iterable[str]
    ) -> None:
        """Add a derivation node by name and edges only (lazy object).

        The Derivation itself is decoded through the loader on first
        :meth:`derivation` access.  Re-adding a name replaces its edges
        and resets any decoded object.
        """
        if name in self._inputs:
            self.remove_derivation(name)
        self._inputs[name] = inputs = tuple(inputs)
        self._outputs[name] = outputs = tuple(outputs)
        producers, consumers = self._producers, self._consumers
        for dataset in inputs:
            self._link(consumers, producers, dataset, name)
        for dataset in outputs:
            self._link(producers, consumers, dataset, name)

    @staticmethod
    def _link(edges: dict, other: dict, dataset: str, name: str) -> None:
        """Add ``name`` to ``edges[dataset]``; a new dataset node gets
        an empty entry in the ``other`` map too."""
        names = edges.get(dataset)
        if names is None:
            edges[dataset] = (name,)
            other[dataset] = ()
        else:
            edges[dataset] = _linked(names, name)

    def remove_derivation(self, name: str) -> None:
        """Remove a derivation node, its edges, and now-orphan datasets.

        Dataset nodes exist only because some derivation mentions them,
        so ones left with no edges are dropped — the result matches a
        cold rebuild without the removed derivation.
        """
        self._decoded.pop(name, None)
        consumers, producers = self._consumers, self._producers
        for dataset in self._inputs.pop(name, ()):
            consumers[dataset] = _unlinked(consumers[dataset], name)
            self._drop_if_isolated(dataset)
        for dataset in self._outputs.pop(name, ()):
            producers[dataset] = _unlinked(producers[dataset], name)
            self._drop_if_isolated(dataset)

    def forget(self, name: str) -> None:
        """Drop a lazy node's decoded object; its edges stay.

        The next :meth:`derivation` asks the loader again — for when
        what the loader reads has changed but the node is not
        re-added yet.
        """
        self._decoded.pop(name, None)

    def _drop_if_isolated(self, dataset: str) -> None:
        if not self._producers[dataset] and not self._consumers[dataset]:
            del self._producers[dataset]
            del self._consumers[dataset]

    # -- basic accessors ----------------------------------------------------

    def derivation(self, name: str) -> Derivation:
        dv = self._decoded.get(name)
        if dv is None:
            if name not in self._inputs:
                raise KeyError(name)
            if self._loader is None:
                raise KeyError(
                    f"derivation {name!r} registered lazily but the graph "
                    f"has no loader"
                )
            dv = self._loader(name)
            if self._keep:
                self._decoded[name] = dv
        return dv

    def nodes(self) -> list[Node]:
        return [dataset_node(n) for n in self.dataset_names()] + [
            derivation_node(n) for n in self.derivation_names()
        ]

    def dataset_names(self) -> list[str]:
        return sorted(self._producers)

    def derivation_names(self) -> list[str]:
        return sorted(self._inputs)

    def successors(self, node: Node) -> set[Node]:
        return self._nodes(*self._adjacent(node.kind, node.name, True))

    def predecessors(self, node: Node) -> set[Node]:
        return self._nodes(*self._adjacent(node.kind, node.name, False))

    def _adjacent(
        self, kind: str, name: str, forward: bool
    ) -> tuple[str, Iterable[str]]:
        """(kind, names) of the nodes one edge away — read-only view."""
        if kind == DATASET:
            edges = self._consumers if forward else self._producers
            return DERIVATION, edges.get(name, ())
        edges = self._outputs if forward else self._inputs
        return DATASET, edges.get(name, ())

    @staticmethod
    def _nodes(kind: str, names: Iterable[str]) -> set[Node]:
        return {Node(kind, name) for name in names}

    def producer_names(self, dataset_name: str) -> Iterable[str]:
        """Names of derivations producing a dataset — read-only view.

        Empty both for producer-less datasets and for names absent
        from the graph entirely.
        """
        return self._producers.get(dataset_name, ())

    def consumer_names(self, dataset_name: str) -> Iterable[str]:
        """Names of derivations reading a dataset — read-only view."""
        return self._consumers.get(dataset_name, ())

    def input_names(self, derivation_name: str) -> tuple[str, ...]:
        """Names of the datasets a derivation reads."""
        return self._inputs.get(derivation_name, ())

    def output_names(self, derivation_name: str) -> tuple[str, ...]:
        """Names of the datasets a derivation writes."""
        return self._outputs.get(derivation_name, ())

    def adjacency(self) -> tuple[dict, dict, dict, dict]:
        """The store itself: ``(producers, consumers, inputs, outputs)``.

        The four live maps, for readers that walk the whole graph (the
        dataflow analyzer) without copying it.  Read-only, like every
        other accessor.  The maps are updated in place, never rebound;
        their values are replaced on change, so read one when it is
        needed rather than keeping it.
        """
        return self._producers, self._consumers, self._inputs, self._outputs

    def __contains__(self, node: Node) -> bool:
        names = self._producers if node.kind == DATASET else self._inputs
        return node.name in names

    def __len__(self) -> int:
        return len(self._producers) + len(self._inputs)

    def edge_count(self) -> int:
        return sum(map(len, self._inputs.values())) + sum(
            map(len, self._outputs.values())
        )

    # -- traversals -----------------------------------------------------------

    def ancestors(self, node: Node) -> set[Node]:
        """All nodes reachable *backwards* from ``node`` (exclusive)."""
        return self._reached(node, False)

    def descendants(self, node: Node) -> set[Node]:
        """All nodes reachable *forwards* from ``node`` (exclusive)."""
        return self._reached(node, True)

    def _reached(self, node: Node, forward: bool) -> set[Node]:
        datasets, derivations = self._reach(node.kind, node.name, forward)
        return self._nodes(DATASET, datasets) | self._nodes(
            DERIVATION, derivations
        )

    def _reach(
        self, kind: str, name: str, forward: bool
    ) -> tuple[set[str], set[str]]:
        """Names of the (datasets, derivations) reachable from a node.

        Exclusive: the start is reported only if a cycle leads back to it.
        """
        seen: dict[str, set[str]] = {DATASET: set(), DERIVATION: set()}
        frontier = [(kind, name)]
        while frontier:
            kind, names = self._adjacent(*frontier.pop(), forward)
            fresh = [n for n in names if n not in seen[kind]]
            seen[kind].update(fresh)
            frontier.extend((kind, n) for n in fresh)
        return seen[DATASET], seen[DERIVATION]

    def upstream_datasets(self, dataset_name: str) -> set[str]:
        """Names of all datasets the given dataset (transitively) depends on."""
        return self._reach(DATASET, dataset_name, False)[0]

    def upstream_derivations(self, dataset_name: str) -> set[str]:
        """Names of all derivations the given dataset (transitively) needs."""
        return self._reach(DATASET, dataset_name, False)[1]

    def downstream_datasets(self, dataset_name: str) -> set[str]:
        """Names of all datasets that (transitively) depend on the given one."""
        return self._reach(DATASET, dataset_name, True)[0]

    def _levels(self) -> list[list[str]]:
        """Derivation names by Kahn level: a derivation waits for the
        producers of its inputs.  A cycle (some dataset transitively
        depends on itself) raises :class:`CyclicDerivationError`."""
        producers = self._producers
        return topological_levels(
            {
                name: [p for dataset in inputs for p in producers[dataset]]
                for name, inputs in self._inputs.items()
            },
            CyclicDerivationError,
            "derivation graph contains a cycle through",
        )

    def topological_order(self) -> list[Node]:
        """Every node after its predecessors: source datasets, then the
        derivations level by level, each level followed by the datasets
        whose last producer it holds."""
        levels = self._levels()
        rank = {name: k for k, level in enumerate(levels) for name in level}
        finished: list[list[str]] = [[] for _ in levels]
        for dataset, producers in self._producers.items():
            if producers:
                finished[max(map(rank.__getitem__, producers))].append(dataset)
        order = [Node(DATASET, n) for n in sorted(self.source_datasets())]
        for level, datasets in zip(levels, finished):
            order.extend(Node(DERIVATION, name) for name in level)
            order.extend(Node(DATASET, name) for name in sorted(datasets))
        return order

    def is_acyclic(self) -> bool:
        try:
            self._levels()
            return True
        except CyclicDerivationError:
            return False

    # -- target-rooted subgraphs (what the planner expands) --------------------

    def required_for(self, dataset_name: str) -> "DerivationGraph":
        """The subgraph of derivations needed to produce a dataset.

        Walks backwards from the target through producing derivations;
        source datasets (no producer in this graph) become leaves.
        """
        return DerivationGraph(
            self.derivation(name)
            for name in self.upstream_derivations(dataset_name)
        )

    def source_datasets(self) -> set[str]:
        """Datasets with no producing derivation in this graph (raw inputs)."""
        return {name for name, p in self._producers.items() if not p}

    def sink_datasets(self) -> set[str]:
        """Datasets no derivation in this graph consumes (final products)."""
        return {name for name, c in self._consumers.items() if not c}

    def depth(self) -> int:
        """Longest derivation chain length (number of derivation nodes)."""
        return len(self._levels())
