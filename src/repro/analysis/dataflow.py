"""A generic worklist/fixpoint dataflow engine over derivation graphs.

The derivation graph is bipartite: dataset nodes (``ds:<lfn>``) and
derivation nodes (``dv:<name>``), with edges ``input -> derivation ->
output``.  A :class:`DataflowPass` assigns each node a *fact* from a
small lattice and a monotone transfer function; the engine iterates a
worklist to the least fixpoint.  Everything is iterative — no
recursion — so million-node graphs neither overflow the stack nor pay
quadratic rescans.

Two solve modes:

* **full** — clear all facts, seed every node, iterate to fixpoint;
* **incremental** — seed only the nodes whose inputs changed and let
  changes propagate outward.  Facts that merely *grow* (lattice
  increases) propagate exactly.  When a fact *shrinks* the engine
  re-solves the affected cone from bottom (facts on a cycle could
  otherwise sustain each other after their support vanished), which is
  still confined to the nodes reachable from the shrink.

The cone walk reuses :func:`repro.planner.dag.reachable`, the planner's
shared topology helper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
)

from repro.analysis.diagnostics import Diagnostic
from repro.planner.dag import reachable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.provenance.graph import DerivationGraph

#: Node-id prefixes for the two sides of the bipartite graph.
DS_PREFIX = "ds:"
DV_PREFIX = "dv:"


def ds_node(lfn: str) -> str:
    """Graph node id for a dataset (by logical file name)."""
    return DS_PREFIX + lfn


def dv_node(name: str) -> str:
    """Graph node id for a derivation."""
    return DV_PREFIX + name


def node_kind(node: str) -> str:
    """``"dataset"`` or ``"derivation"`` for a graph node id."""
    return "dataset" if node.startswith(DS_PREFIX) else "derivation"


def node_name(node: str) -> str:
    """The LFN or derivation name behind a graph node id."""
    return node[3:]


class GraphView:
    """The catalog's derivation graph, read in ``ds:``/``dv:`` node ids.

    A read-only window on the four name-keyed maps of a
    :class:`~repro.provenance.graph.DerivationGraph` — nothing is
    copied, so the view is as current as the graph it reads.  Node ids
    are prefixed on the way out and stripped on the way in; fact tables
    and report caches key on them.
    """

    __slots__ = ("_producers", "_consumers", "_inputs", "_outputs")

    def __init__(self, graph: "DerivationGraph") -> None:
        (
            self._producers,
            self._consumers,
            self._inputs,
            self._outputs,
        ) = graph.adjacency()

    def __contains__(self, node: str) -> bool:
        names = self._producers if node.startswith(DS_PREFIX) else self._inputs
        return node[3:] in names

    def __len__(self) -> int:
        return len(self._producers) + len(self._inputs)

    def derivation_count(self) -> int:
        return len(self._inputs)

    @property
    def nodes(self) -> Iterator[str]:
        for lfn in self._producers:
            yield DS_PREFIX + lfn
        for name in self._inputs:
            yield DV_PREFIX + name

    def succ(self, node: str) -> List[str]:
        """Consumers of a dataset node, outputs of a derivation node."""
        if node.startswith(DS_PREFIX):
            return [DV_PREFIX + n for n in self._consumers.get(node[3:], ())]
        return [DS_PREFIX + n for n in self._outputs.get(node[3:], ())]

    def pred(self, node: str) -> List[str]:
        """Producers of a dataset node, inputs of a derivation node."""
        if node.startswith(DS_PREFIX):
            return [DV_PREFIX + n for n in self._producers.get(node[3:], ())]
        return [DS_PREFIX + n for n in self._inputs.get(node[3:], ())]

    def neighbors(self, node: str) -> Set[str]:
        """All nodes adjacent to ``node`` in either direction."""
        return {*self.succ(node), *self.pred(node)}


class DataflowPass:
    """One analysis expressed as facts + a monotone transfer function.

    Subclasses set :attr:`name`, :attr:`direction` (``"forward"``:
    facts flow producer -> consumer, transfer reads predecessor facts;
    ``"backward"``: the reverse; ``"local"``: per-node only, nothing
    propagates) and :attr:`codes` (the VDG codes the pass may emit).
    """

    name: str = "pass"
    direction: str = "forward"
    codes: tuple = ()
    #: How many influence hops away a node's fact can affect another
    #: node's *report*.  1 covers reports that read dependency-neighbour
    #: facts; passes whose reports look further set it higher.
    report_hops: int = 1

    def transfer(
        self,
        node: str,
        graph: GraphView,
        facts: Dict[str, Any],
        model: Any,
    ) -> Any:
        """The node's new fact, computed from neighbours and ``model``.

        Must be monotone in the neighbour facts and must treat a
        missing neighbour fact (``facts.get(n) is None``) as bottom.
        """
        raise NotImplementedError

    def report(
        self,
        node: str,
        graph: GraphView,
        facts: Dict[str, Any],
        model: Any,
    ) -> Iterable[Diagnostic]:
        """Diagnostics anchored at ``node`` given the solved facts."""
        return ()

    def subsumes(self, new: Any, old: Any) -> bool:
        """True when ``new`` >= ``old`` in the pass's fact lattice.

        Used to distinguish lattice growth (propagates exactly) from
        shrinkage (forces a cone re-solve).  The default treats any
        change as a potential shrink, which is always safe.
        """
        return new == old

    def on_fact_change(
        self, node: str, old: Any, new: Any, model: Any
    ) -> Iterable[str]:
        """Extra node ids whose *reports* depend on this fact change.

        Hook for passes whose diagnostics relate nodes that are not
        graph-adjacent (e.g. two writers of the same LFN).  The engine
        re-reports every id returned.  Also called with ``new=None``
        when a node leaves the graph.
        """
        return ()

    def on_full_solve(self, model: Any) -> None:
        """Called before a full solve; reset any model-side indexes."""
        return None


@dataclass
class SolveStats:
    """Work accounting for one :func:`solve` call."""

    mode: str = "full"
    seeds: int = 0
    visited: int = 0
    changed: int = 0
    reset_cone: int = 0


@dataclass
class SolveResult:
    """Outcome of one :func:`solve` call."""

    #: Nodes whose fact differs from before the solve.
    changed: Set[str] = field(default_factory=set)
    #: Nodes whose diagnostics must be regenerated (superset of
    #: ``changed``: includes seeds and any re-solved cone).
    report: Set[str] = field(default_factory=set)
    stats: SolveStats = field(default_factory=SolveStats)


def _influence(
    pass_: DataflowPass, graph: GraphView, node: str
) -> Iterable[str]:
    """Nodes whose transfer reads ``node``'s fact."""
    if pass_.direction == "forward":
        return graph.succ(node)
    if pass_.direction == "backward":
        return graph.pred(node)
    return ()


def _iterate(
    pass_: DataflowPass,
    graph: GraphView,
    facts: Dict[str, Any],
    model: Any,
    seeds: Iterable[str],
    stats: SolveStats,
    changed: Set[str],
    decreased: Optional[Set[str]],
    report_extra: Set[str],
) -> None:
    """Chaotic iteration from ``seeds`` until the worklist drains."""
    worklist = deque(sorted(seeds))
    queued = set(worklist)
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        if node not in graph:
            continue
        stats.visited += 1
        old = facts.get(node)
        new = pass_.transfer(node, graph, facts, model)
        if new == old:
            continue
        facts[node] = new
        changed.add(node)
        extra = pass_.on_fact_change(node, old, new, model)
        if extra:
            report_extra.update(extra)
        if (
            decreased is not None
            and old is not None
            and not pass_.subsumes(new, old)
        ):
            decreased.add(node)
        for nxt in _influence(pass_, graph, node):
            if nxt not in queued:
                queued.add(nxt)
                worklist.append(nxt)


def solve(
    pass_: DataflowPass,
    graph: GraphView,
    facts: Dict[str, Any],
    model: Any,
    seeds: Optional[Iterable[str]] = None,
) -> SolveResult:
    """Solve ``pass_`` to fixpoint, fully or from dirty ``seeds``.

    ``facts`` is mutated in place.  ``seeds=None`` requests a full
    solve (facts cleared, every node seeded); otherwise only the seeds
    are recomputed and changes propagate along the pass's direction.
    """
    result = SolveResult()
    stats = result.stats
    if seeds is None:
        stats.mode = "full"
        facts.clear()
        pass_.on_full_solve(model)
        live = set(graph.nodes)
        stats.seeds = len(live)
        _iterate(
            pass_,
            graph,
            facts,
            model,
            live,
            stats,
            result.changed,
            None,
            result.report,
        )
    else:
        stats.mode = "incremental"
        live = {node for node in seeds if node in graph}
        stats.seeds = len(live)
        result.report |= live
        decreased: Set[str] = set()
        _iterate(
            pass_,
            graph,
            facts,
            model,
            live,
            stats,
            result.changed,
            decreased,
            result.report,
        )
        if decreased and pass_.direction != "local":
            # A fact shrank: re-derive its cone from bottom so no
            # cyclic fact keeps feeding on removed support.  Facts at
            # the cone boundary are untouched and remain valid inputs.
            # Local passes have no dependents, so propagation (and this
            # reset) is moot for them.
            def influenced(node: str) -> Iterable[str]:
                return _influence(pass_, graph, node)

            cone = reachable(influenced, decreased)
            stats.reset_cone = len(cone)
            before = {node: facts.get(node) for node in cone}
            for node in cone:
                facts.pop(node, None)
            _iterate(
                pass_,
                graph,
                facts,
                model,
                cone,
                stats,
                set(),
                None,
                result.report,
            )
            for node, prior in before.items():
                if facts.get(node) != prior:
                    result.changed.add(node)
            result.report |= cone
        # Reports may read facts up to ``report_hops`` influence hops
        # back; everything within that radius of a change re-reports.
        frontier = set(result.changed)
        for _ in range(pass_.report_hops):
            if not frontier:
                break
            nxt: Set[str] = set()
            for node in frontier:
                nxt.update(_influence(pass_, graph, node))
            result.report |= nxt
            frontier = nxt
    result.report |= result.changed
    stats.changed = len(result.changed)
    return result
