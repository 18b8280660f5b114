"""A generic worklist/fixpoint dataflow engine over derivation graphs.

The derivation graph is bipartite — dataset nodes and derivation nodes,
with edges ``input -> derivation -> output`` — and the engine reads the
catalog's :class:`~repro.provenance.graph.DerivationGraph` as it is
stored: nodes go by the names the graph already holds (LFNs and
derivation names), everything kept per node is a :class:`PerKind` pair
of containers (``datasets[lfn]``, ``derivations[name]``), and a
transfer is handed its neighbour names as the very tuple or set the
graph keeps.  A :class:`DataflowPass` assigns each node a *fact* from a
small lattice and a monotone transfer function per kind; the engine
drains a dataset worklist and a derivation worklist in turn until the
least fixpoint.  Everything is iterative — no recursion — so
million-node graphs neither overflow the stack nor pay quadratic
rescans.

Two solve modes:

* **full** — clear all facts, seed every node, iterate to fixpoint;
* **incremental** — seed only the nodes whose inputs changed and let
  changes propagate outward.  Facts that merely *grow* (lattice
  increases) propagate exactly.  When a fact *shrinks* the engine
  re-solves the affected cone from bottom (facts on a cycle could
  otherwise sustain each other after their support vanished), which is
  still confined to the nodes reachable from the shrink.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.provenance.graph import DerivationGraph


class PerKind(NamedTuple):
    """One container per node kind, keyed by the graph's own names.

    Fact tables and report caches are pairs of dicts; seeds, dirty
    sets, ``changed`` and ``report`` are pairs of sets.  The containers
    are filled in place, so a pair is never rebuilt.
    """

    datasets: Any
    derivations: Any


#: Where each kind sits in a :class:`PerKind`.
DATASETS, DERIVATIONS = 0, 1


def fact_tables() -> PerKind:
    return PerKind({}, {})


def name_sets() -> PerKind:
    return PerKind(set(), set())


def members(graph: "DerivationGraph") -> PerKind:
    """The graph's maps whose keys are its dataset / derivation names."""
    producers, _, inputs, _ = graph.adjacency()
    return PerKind(producers, inputs)


#: ``transfer_*(name, sources, facts, model)`` and
#: ``report_*(name, graph, facts, model)``.
Transfer = Callable[[str, Iterable[str], PerKind, Any], Any]
Report = Callable[[str, "DerivationGraph", PerKind, Any], Sequence[Diagnostic]]


class DataflowPass:
    """One analysis expressed as facts + monotone transfer functions.

    Subclasses set :attr:`name`, :attr:`direction` (``"forward"``:
    facts flow producer -> consumer, a transfer's ``sources`` are the
    node's predecessors; ``"backward"``: the reverse; ``"local"``:
    per-node only, nothing propagates and ``sources`` is empty) and
    :attr:`codes` (the VDG codes the pass may emit), and define the
    methods for the node kinds they have something to say about.  A
    kind whose method stays ``None`` costs nothing: without a transfer
    the engine neither seeds, visits nor stores it (its fact is bottom,
    so no fact travels through it either), without a report it is
    never reported.
    """

    name: str = "pass"
    direction: str = "forward"
    codes: tuple = ()
    #: How many influence hops away a node's fact can affect another
    #: node's *report*.  1 covers reports that read dependency-neighbour
    #: facts; passes whose reports look further set it higher.
    report_hops: int = 1

    #: The node's new fact, computed from the facts of ``sources`` (the
    #: neighbour names on the side the pass reads from, as the graph
    #: stores them: do not mutate, do not rely on their order) and
    #: ``model``.  Must be monotone in the neighbour facts and must
    #: treat a missing one (``facts.derivations.get(n) is None``) as
    #: bottom.
    transfer_dataset: Optional[Transfer] = None
    transfer_derivation: Optional[Transfer] = None

    #: Diagnostics anchored at the node given the solved facts.
    report_dataset: Optional[Report] = None
    report_derivation: Optional[Report] = None

    #: ``on_fact_change(derivation, old, new, model)``: names of other
    #: derivations whose *reports* depend on this derivation's fact.
    #: Hook for passes whose diagnostics relate derivations that are
    #: not graph-adjacent (e.g. two writers of the same LFN); the
    #: engine re-reports every name returned.  Also called with
    #: ``new=None`` when the derivation leaves the graph.
    on_fact_change: Optional[Callable[[str, Any, Any, Any], Iterable[str]]] = None

    def subsumes(self, new: Any, old: Any) -> bool:
        """True when ``new`` >= ``old`` in the pass's fact lattice.

        Used to distinguish lattice growth (propagates exactly) from
        shrinkage (forces a cone re-solve).  The default treats any
        change as a potential shrink, which is always safe.
        """
        return new == old

    def on_full_solve(self, model: Any) -> None:
        """Called before a full solve; reset any model-side indexes."""
        return None


@dataclass
class SolveStats:
    """Work accounting for one :func:`solve` call.

    ``seeds`` and ``visited`` count only the kinds the pass keeps facts
    for.
    """

    mode: str = "full"
    seeds: int = 0
    visited: int = 0
    changed: int = 0
    reset_cone: int = 0


@dataclass
class SolveResult:
    """Outcome of one :func:`solve` call."""

    #: Nodes whose fact differs from before the solve.
    changed: PerKind = field(default_factory=name_sets)
    #: Nodes whose diagnostics must be regenerated (superset of
    #: ``changed``: includes seeds and any re-solved cone).
    report: PerKind = field(default_factory=name_sets)
    stats: SolveStats = field(default_factory=SolveStats)


class _Solver:
    """What one :func:`solve` call holds fixed: the pass, its tables,
    and the graph's own maps laid out in the pass's direction."""

    def __init__(
        self,
        pass_: DataflowPass,
        graph: "DerivationGraph",
        facts: PerKind,
        model: Any,
        result: SolveResult,
    ) -> None:
        self.pass_, self.facts, self.model = pass_, facts, model
        self.stats = result.stats
        self.report_extra: set = result.report.derivations
        producers, consumers, inputs, outputs = graph.adjacency()
        self.live = upstream = PerKind(producers, inputs)
        downstream = PerKind(consumers, outputs)
        #: Per kind, name -> the names whose facts its transfer reads,
        #: and name -> the names whose transfer reads its fact; None
        #: for a local pass.
        self.sources: Optional[PerKind] = None
        self.influence: Optional[PerKind] = None
        if pass_.direction == "forward":
            self.sources, self.influence = upstream, downstream
        elif pass_.direction == "backward":
            self.sources, self.influence = downstream, upstream
        self.transfers = (pass_.transfer_dataset, pass_.transfer_derivation)
        #: ``influence`` where facts travel: they do only if both kinds
        #: keep them — a kind without a transfer stays at bottom,
        #: whatever its neighbours say.
        self.feeds = None if None in self.transfers else self.influence

    def seeded(self, seeds: Sequence[Iterable[str]]) -> int:
        """How many of ``seeds`` a solve enqueues."""
        return sum(
            len(names)
            for names, transfer in zip(seeds, self.transfers)
            if transfer is not None
        )

    def iterate(
        self,
        seeds: Sequence[Iterable[str]],
        changed: PerKind,
        decreased: Optional[PerKind],
    ) -> None:
        """Chaotic iteration from ``seeds`` until both worklists drain.

        The worklists take turns, each drained before the other runs:
        a node only ever enqueues nodes of the other kind, so this is
        the order one mixed FIFO seeded datasets-first would visit in.
        """
        facts, model, transfers = self.facts, self.model, self.transfers
        subsumes = self.pass_.subsumes
        work = [
            deque(sorted(names) if transfer is not None else ())
            for names, transfer in zip(seeds, transfers)
        ]
        queued = [set(todo) for todo in work]
        visited = 0
        while work[0] or work[1]:
            for kind in (DATASETS, DERIVATIONS):
                todo, transfer = work[kind], transfers[kind]
                if transfer is None or not todo:
                    continue
                table, alive = facts[kind], self.live[kind]
                reads = self.sources[kind] if self.sources is not None else None
                feeds = self.feeds[kind] if self.feeds is not None else None
                hook = self.pass_.on_fact_change if kind == DERIVATIONS else None
                mine, theirs = queued[kind], queued[1 - kind]
                moved = changed[kind]
                shrank = decreased[kind] if decreased is not None else None
                push = work[1 - kind].append
                while todo:
                    name = todo.popleft()
                    mine.discard(name)
                    if name not in alive:
                        continue
                    visited += 1
                    old = table.get(name)
                    new = transfer(
                        name, reads[name] if reads is not None else (), facts, model
                    )
                    if new == old:
                        continue
                    if (
                        shrank is not None
                        and old is not None
                        and not subsumes(new, old)
                    ):
                        shrank.add(name)
                        if feeds is not None:
                            # Leave the fact standing: the cone re-solve
                            # derives it, and all it reaches, from
                            # bottom.  Writing only growth is what lets
                            # this loop drain on any cycle — a shrink
                            # and a growth chasing each other round one
                            # would never settle.
                            continue
                    table[name] = new
                    moved.add(name)
                    if hook is not None:
                        self.report_extra.update(hook(name, old, new, model))
                    if feeds is not None:
                        for nxt in feeds[name]:
                            if nxt not in theirs:
                                theirs.add(nxt)
                                push(nxt)
        self.stats.visited += visited

    def cone(self, starts: PerKind) -> PerKind:
        """``starts`` plus everything their facts reach, per kind."""
        cone = PerKind(set(starts.datasets), set(starts.derivations))
        if self.feeds is None:
            return cone
        stack = [
            (kind, name)
            for kind in (DATASETS, DERIVATIONS)
            for name in starts[kind]
        ]
        while stack:
            kind, name = stack.pop()
            reached = cone[1 - kind]
            for nxt in self.feeds[kind].get(name, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append((1 - kind, nxt))
        return cone


def _merge(into: PerKind, names: PerKind) -> None:
    for mine, theirs in zip(into, names):
        mine |= theirs


def solve(
    pass_: DataflowPass,
    graph: "DerivationGraph",
    facts: PerKind,
    model: Any,
    seeds: Optional[PerKind] = None,
) -> SolveResult:
    """Solve ``pass_`` to fixpoint, fully or from dirty ``seeds``.

    ``facts`` is mutated in place.  ``seeds=None`` requests a full
    solve (facts cleared, every node seeded); otherwise only the seeds
    are recomputed and changes propagate along the pass's direction.
    """
    result = SolveResult()
    stats = result.stats
    solver = _Solver(pass_, graph, facts, model, result)
    if seeds is None:
        stats.mode = "full"
        for table in facts:
            table.clear()
        pass_.on_full_solve(model)
        stats.seeds = solver.seeded(solver.live)
        solver.iterate(solver.live, result.changed, None)
    else:
        stats.mode = "incremental"
        seeds = PerKind(
            *(
                {name for name in names if name in alive}
                for names, alive in zip(seeds, solver.live)
            )
        )
        stats.seeds = solver.seeded(seeds)
        _merge(result.report, seeds)
        decreased = name_sets()
        solver.iterate(seeds, result.changed, decreased)
        if any(decreased) and solver.feeds is not None:
            # A fact shrank: re-derive its cone from bottom so no
            # cyclic fact keeps feeding on removed support.  Facts at
            # the cone boundary are untouched and remain valid inputs.
            # Where facts do not travel (a local pass, or one keeping
            # a single kind) nothing depends on the shrunk fact, so
            # propagation (and this reset) is moot.
            cone = solver.cone(decreased)
            stats.reset_cone = sum(map(len, cone))
            before = [
                {name: table.pop(name, None) for name in names}
                for table, names in zip(facts, cone)
            ]
            solver.iterate(cone, name_sets(), None)
            for table, priors, moved in zip(facts, before, result.changed):
                moved.update(
                    name
                    for name, prior in priors.items()
                    if table.get(name) != prior
                )
            _merge(result.report, cone)
        # Reports may read facts up to ``report_hops`` influence hops
        # back; everything within that radius of a change re-reports.
        frontier, influence = result.changed, solver.influence
        hops = pass_.report_hops
        while influence is not None and hops and any(frontier):
            hops -= 1
            nxt = name_sets()
            for kind in (DATASETS, DERIVATIONS):
                reach = influence[kind]
                for name in frontier[kind]:
                    nxt[1 - kind].update(reach.get(name, ()))
            _merge(result.report, nxt)
            frontier = nxt
    _merge(result.report, result.changed)
    stats.changed = sum(map(len, result.changed))
    return result
