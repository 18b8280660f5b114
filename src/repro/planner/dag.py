"""Plan construction: expanding requests into executable DAGs.

Planning turns a :class:`~repro.planner.request.MaterializationRequest`
into a :class:`Plan` — a DAG of concrete, *simple*-transformation steps:

1. walk backwards from each target dataset through producing
   derivations (the catalog's provenance graph);
2. expand compound transformations recursively into their constituent
   calls, synthesizing scratch LFNs for intermediate formals;
3. apply the reuse policy: prune sub-graphs whose outputs already have
   replicas ("determine whether a requested computation has been
   performed previously, and whether it is cheaper to rerun it or to
   retrieve previously generated data", §1).

The result is what the paper calls the "data derivation workflow graph"
(§5.3), ready for site selection (:mod:`repro.planner.strategies`) and
dispatch (:mod:`repro.planner.scheduler`).
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.catalog.resolver import ReferenceResolver
from repro.core.derivation import DatasetArg, Derivation
from repro.core.topology import degrees, edges, kahn_levels, reachable
from repro.core.transformation import (
    CompoundTransformation,
    FormalRef,
    SimpleTransformation,
)
from repro.errors import (
    CyclicDerivationError,
    PlanningError,
    UnderivableError,
)
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.request import MaterializationRequest
from repro.provenance.graph import DerivationGraph


@dataclass(slots=True)
class PlanStep:
    """One executable node: a concrete derivation of a simple TR.

    A :class:`Plan` keeps its steps as columns and builds a PlanStep
    when one is asked for; changing it changes nothing in the plan.
    """

    name: str
    derivation: Derivation
    transformation: SimpleTransformation
    #: Estimated cpu seconds (filled by the estimator; default heuristic).
    cpu_seconds: float = 1.0
    #: Output LFN -> estimated size in bytes.
    output_sizes: dict[str, int] = field(default_factory=dict)
    # Computed once per step: ``Derivation.inputs()``/``outputs()``
    # sort a fresh set per call, and a step's readers ask for both.
    inputs: tuple[str, ...] = field(init=False, repr=False, compare=False)
    outputs: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inputs = self.derivation.inputs()
        self.outputs = self.derivation.outputs()


class Plan:
    """An executable workflow DAG plus its boundary conditions.

    Stored as columns over dense step ids, assigned in step-name order
    so that id order is name order: a name list and a name -> id map;
    per id the derivation, the transformation, the cpu estimate and the
    output sizes (a tuple aligned with the derivation's sorted
    ``outputs()``); and the dependency edges, both ways, as CSR arrays
    (:mod:`repro.core.topology`).  Names stay the API: ``steps`` and
    ``dependencies`` are read-only mapping views that build what they
    return (a :class:`PlanStep`, a frozenset of step names) and keep
    none of it.

    This constructor is the name-keyed one: ``steps`` maps step names
    to :class:`PlanStep`\\ s and ``dependencies`` maps every step name
    to the names of the steps that must complete first.  It raises
    :class:`PlanningError` on a step missing from the dependency map
    (it would never dispatch), a dependency entry for an unknown step,
    and a dependency on a step that is not in the plan (e.g. one
    pruned as a reused subgraph).  The planner builds its plans from
    columns directly.
    """

    def __init__(
        self,
        targets: tuple[str, ...],
        steps: Optional[Mapping[str, PlanStep]] = None,
        dependencies: Optional[Mapping[str, Iterable[str]]] = None,
        reused: Optional[set[str]] = None,
        sources: Optional[set[str]] = None,
        temporaries: Optional[set[str]] = None,
    ):
        steps = steps or {}
        dependencies = dependencies or {}
        orphans = [name for name in steps if name not in dependencies]
        if orphans:
            raise PlanningError(
                f"plan inconsistent: steps missing from the dependency "
                f"map would never dispatch: {sorted(orphans)[:6]}"
            )
        names = sorted(steps)
        ids = dict(zip(names, range(len(names))))
        for name, deps in dependencies.items():
            if name not in ids:
                raise PlanningError(
                    f"plan inconsistent: dependency entry for unknown "
                    f"step {name!r}"
                )
            dangling = {dep for dep in deps if dep not in ids}
            if dangling:
                raise PlanningError(
                    f"plan inconsistent: step {name!r} depends on pruned "
                    f"or unknown steps {sorted(dangling)[:6]}"
                )
        rows = [steps[name] for name in names]
        self._assign(
            targets,
            names,
            ids,
            [step.derivation for step in rows],
            [step.transformation for step in rows],
            array("d", [step.cpu_seconds for step in rows]),
            [
                tuple(step.output_sizes.get(out, 0) for out in step.outputs)
                for step in rows
            ],
            edges(
                sorted({ids[dep] for dep in dependencies[name]})
                for name in names
            ),
            reused,
            sources,
            temporaries,
        )

    @classmethod
    def _columns(cls, targets, names, ids, derivations, transformations,
                 cpu, sizes, links, reused, sources, temporaries):
        """A plan from columns the planner already validated."""
        plan = cls.__new__(cls)
        plan._assign(targets, names, ids, derivations, transformations,
                     cpu, sizes, links, reused, sources, temporaries)
        return plan

    def _assign(self, targets, names, ids, derivations, transformations,
                cpu, sizes, links, reused, sources, temporaries):
        self.targets = targets
        #: Datasets satisfied from existing replicas (reuse decisions).
        self.reused: set[str] = reused if reused is not None else set()
        #: Raw source datasets that must pre-exist on the grid.
        self.sources: set[str] = sources if sources is not None else set()
        #: Scratch datasets that may be deleted after the workflow.
        self.temporaries: set[str] = (
            temporaries if temporaries is not None else set()
        )
        self._names: list[str] = names
        self._ids: dict[str, int] = ids
        self._derivations: list[Derivation] = derivations
        self._transformations: list[SimpleTransformation] = transformations
        self._cpu: array = cpu
        self._sizes: list[tuple[int, ...]] = sizes
        #: Step id -> ids of the steps it waits for, and the reverse
        #: (:func:`~repro.core.topology.edges`).
        self._depends_on, self._released_by = links

    # -- the name API ---------------------------------------------------------

    @property
    def steps(self) -> Mapping[str, PlanStep]:
        """Step name -> a :class:`PlanStep` built on demand."""
        return _StepsView(self)

    @property
    def dependencies(self) -> Mapping[str, frozenset[str]]:
        """Step name -> names of the steps that must complete first."""
        return _DependenciesView(self)

    def _step(self, step_id: int) -> PlanStep:
        step = PlanStep(
            self._names[step_id],
            self._derivations[step_id],
            self._transformations[step_id],
            self._cpu[step_id],
        )
        step.output_sizes = dict(zip(step.outputs, self._sizes[step_id]))
        return step

    def _set_step(self, name, derivation, transformation, cpu, sizes):
        """Swap one step's columns in place (the planner's patch path:
        the step keeps its inputs and outputs, so its edges stand)."""
        step_id = self._ids[name]
        self._derivations[step_id] = derivation
        self._transformations[step_id] = transformation
        self._cpu[step_id] = cpu
        self._sizes[step_id] = sizes

    def frontier(self, done: Optional[set[str]] = None) -> "Frontier":
        """An incremental ready-set tracker over this plan's DAG."""
        return Frontier(self, done=done)

    def levels(self) -> list[list[str]]:
        """The steps a :class:`Frontier` releases round by round, each
        round in name order.  A cycle raises
        :class:`~repro.errors.CyclicDerivationError` naming the stuck
        steps, as the static ``VDG301`` rule would."""
        names = self._names
        return [[names[i] for i in level] for level in self._walk()]

    def _walk(self) -> Iterator[list[int]]:
        offsets, _ = self._depends_on
        return kahn_levels(
            self._names,
            degrees(offsets),
            *self._released_by,
            CyclicDerivationError,
            "plan dependency cycle through steps",
        )

    def topological_order(self) -> list[str]:
        """Step names in a valid execution order (the levels, flattened)."""
        return list(chain.from_iterable(self.levels()))

    def width(self) -> int:
        """Maximum number of steps runnable concurrently: the widest
        level (on a cyclic plan, the widest before the cycle)."""
        best = 0
        try:
            for level in self._walk():
                best = max(best, len(level))
        except CyclicDerivationError:
            pass
        return best

    def depth(self) -> int:
        """Length of the longest dependency chain (the level count)."""
        return sum(1 for _ in self._walk())

    def producers(self) -> dict[str, str]:
        """Dataset name -> producing step name."""
        out = {}
        for name, derivation in zip(self._names, self._derivations):
            for dataset in derivation.outputs():
                out[dataset] = name
        return out

    def total_cpu_seconds(self) -> float:
        return sum(self._cpu)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        return f"Plan(targets={self.targets!r}, steps={len(self)})"


class _StepsView(Mapping):
    """:attr:`Plan.steps`: names in name order, a step built per read."""

    __slots__ = ("_plan",)

    def __init__(self, plan: Plan):
        self._plan = plan

    def get(self, name: str, default=None):
        step_id = self._plan._ids.get(name)
        return default if step_id is None else self._plan._step(step_id)

    def __getitem__(self, name: str):
        value = self.get(name, _MISSING)
        if value is _MISSING:
            raise KeyError(name)
        return value

    def __contains__(self, name: object) -> bool:
        return name in self._plan._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._plan._names)

    def __len__(self) -> int:
        return len(self._plan._names)


class _DependenciesView(_StepsView):
    """:attr:`Plan.dependencies`: a frozenset of names built per read."""

    __slots__ = ()

    def get(self, name: str, default=None):
        plan = self._plan
        step_id = plan._ids.get(name)
        if step_id is None:
            return default
        offsets, targets = plan._depends_on
        return frozenset(
            map(
                plan._names.__getitem__,
                targets[offsets[step_id]:offsets[step_id + 1]],
            )
        )


_MISSING = object()


#: A step's state in a :class:`Frontier`.
OPEN, COMPLETED, FAILED, SKIPPED = range(4)


class Frontier:
    """A run's DAG-side state over a :class:`Plan`.

    Dispatchers used to rescan every step's dependencies after every
    completion — O(V·E) over a whole run.  The frontier instead keeps a
    per-step count of unfinished predecessors and decrements it as
    steps complete, so releasing the whole run's worth of work is
    O(V+E) total.  Steps whose counts reach zero join the ready set
    until they complete, and the dispatch queue until :meth:`take`
    hands them out.  :meth:`fail` records a failure and skips what
    stands behind it.

    It keeps everything by the plan's step ids — the counts in one
    array, each step's state in one byte, the ready set and the
    dispatch heap as ids — and takes and returns names.  ``completed``,
    ``failed`` and ``skipped`` are read-only set views of the states.
    ``done`` pre-completes steps already satisfied, e.g. by a rescue
    file; names that are not steps of the plan are ignored.
    """

    #: Hand out no more steps once one has failed.
    fail_fast = False

    def __init__(self, plan: Plan, done: Optional[set[str]] = None):
        self._names = plan._names
        self._ids = plan._ids
        self._offsets, self._targets = plan._released_by
        # Own counts, decremented in complete().
        self._missing = degrees(plan._depends_on[0])
        self._state = bytearray(len(self._names))
        #: Steps per state.
        self._counts = [len(self._names), 0, 0, 0]
        self._ready: set[int] = {
            step_id for step_id, count in enumerate(self._missing) if not count
        }
        # A heap of released, untaken ids, built at the first take():
        # a frontier drained through ready() and complete() keeps none.
        self._queue: Optional[list[int]] = None
        self._held: list[int] = []
        for name in done or ():
            # Pre-completed steps may arrive in any order, so a
            # dependent of one may complete before it; complete()
            # never releases a completed step again.
            step_id = self._ids.get(name)
            if step_id is not None:
                self._complete(step_id)

    @property
    def completed(self) -> Set[str]:
        return _StateView(self, COMPLETED)

    @property
    def failed(self) -> Set[str]:
        return _StateView(self, FAILED)

    @property
    def skipped(self) -> Set[str]:
        return _StateView(self, SKIPPED)

    def ready(self) -> list[str]:
        """Released, uncompleted steps in name order (deterministic)."""
        names = self._names
        return [names[step_id] for step_id in sorted(self._ready)]

    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def exhausted(self) -> bool:
        """True when every step has completed, failed or been skipped."""
        return self.remaining() <= 0

    def remaining(self) -> int:
        return self._counts[OPEN]

    @property
    def halted(self) -> bool:
        """True once a step failed under ``fail_fast``."""
        return self.fail_fast and bool(self._counts[FAILED])

    def take(self) -> Optional[str]:
        """The first released step in name order not yet taken; ``None``
        when there is none, or once the frontier has halted."""
        if self._queue is None:
            self._queue = sorted(self._ready)
        if not self._queue or self.halted:
            return None
        return self._names[heapq.heappop(self._queue)]

    def hold(self, name: str) -> None:
        """Hand a taken step back until the next complete() or fail()."""
        self._held.append(self._id(name))

    def _requeue_held(self) -> None:
        for step_id in self._held:
            heapq.heappush(self._queue, step_id)
        self._held.clear()

    def _id(self, name: str) -> int:
        step_id = self._ids.get(name)
        if step_id is None:
            raise PlanningError(f"frontier: unknown step {name!r}")
        return step_id

    def _settle(self, step_id: int, state: int) -> None:
        self._counts[self._state[step_id]] -= 1
        self._counts[state] += 1
        self._state[step_id] = state

    def complete(self, name: str) -> list[str]:
        """Mark ``name`` done; returns the steps this newly releases."""
        released = self._complete(self._id(name))
        if not released:
            return released
        names = self._names
        return [names[i] for i in sorted(released)]

    def _complete(self, step_id: int) -> list[int]:
        state = self._state
        if state[step_id] == COMPLETED:
            return []
        self._settle(step_id, COMPLETED)
        ready, queue, missing = self._ready, self._queue, self._missing
        ready.discard(step_id)
        offsets = self._offsets
        released: list[int] = []
        for dependent in self._targets[offsets[step_id]:offsets[step_id + 1]]:
            if state[dependent] == COMPLETED:
                continue
            count = missing[dependent] - 1
            missing[dependent] = count
            if count == 0:
                ready.add(dependent)
                released.append(dependent)
                if queue is not None:
                    heapq.heappush(queue, dependent)
        if self._held:
            self._requeue_held()
        return released

    def fail(self, name: str) -> list[str]:
        """Mark ``name`` failed; returns the steps this newly skips, in
        name order: its transitive dependents up to, not through, done,
        failed or skipped steps (a step behind a done one, on a rescue
        resume, needs nothing more of ``name``)."""
        step_id = self._id(name)
        self._settle(step_id, FAILED)
        state, offsets, targets = self._state, self._offsets, self._targets

        def open_dependents(node: int) -> list[int]:
            return [
                dependent
                for dependent in targets[offsets[node]:offsets[node + 1]]
                if state[dependent] == OPEN
            ]

        newly = sorted(reachable(open_dependents, open_dependents(step_id)))
        for dependent in newly:
            self._settle(dependent, SKIPPED)
        self._requeue_held()
        names = self._names
        return [names[i] for i in newly]


class _StateView(Set):
    """The names of a :class:`Frontier`'s steps in one state."""

    __slots__ = ("_frontier", "_code")

    def __init__(self, frontier: Frontier, code: int):
        self._frontier = frontier
        self._code = code

    def __contains__(self, name: object) -> bool:
        step_id = self._frontier._ids.get(name)
        return (
            step_id is not None
            and self._frontier._state[step_id] == self._code
        )

    def __len__(self) -> int:
        return self._frontier._counts[self._code]

    def __iter__(self) -> Iterator[str]:
        names, code = self._frontier._names, self._code
        return (
            names[step_id]
            for step_id, state in enumerate(self._frontier._state)
            if state == code
        )

    @classmethod
    def _from_iterable(cls, names: Iterable[str]) -> set[str]:
        return set(names)

    def __repr__(self) -> str:
        return repr(set(self))


#: Callback deciding rerun-vs-retrieve for one dataset under the
#: ``cost`` policy.  Receives (dataset_name, recompute_cpu_seconds) and
#: returns True to reuse the existing replica.
ReuseDecider = Callable[[str, float], bool]


class _PlanCacheEntry:
    """What an incremental planner remembers about its last build."""

    __slots__ = ("key", "plan", "visited", "probes", "producers")

    def __init__(self, key, plan, visited, probes, producers):
        self.key = key
        self.plan = plan
        #: Every dataset the planning walk visited.
        self.visited = visited
        #: dataset -> has_replica answer consulted during the build.
        self.probes = probes
        #: dataset -> producing step id (for size re-estimates).
        self.producers = producers


class Planner:
    """Expands requests against one catalog (and optional resolver).

    With ``incremental=True`` the planner subscribes to the catalog's
    mutation-event stream and caches its last plan: a re-plan of the
    same request after localized changes (e.g. one derivation's
    metadata edited) patches only the affected steps instead of
    re-walking the whole graph, and ``has_replica`` answers are
    re-probed on every hit so out-of-band sandbox changes still force a
    rebuild.  ``size_estimate`` is asked once per step output, with the
    step's derivation and the output's name.  Incremental mode requires
    the estimate callables (``cpu_estimate``/``size_estimate``) to be
    pure functions of catalog state — estimators that train between
    calls (the grid executor's) must keep the default
    ``incremental=False``.
    """

    def __init__(
        self,
        catalog: VirtualDataCatalog,
        resolver: Optional[ReferenceResolver] = None,
        has_replica: Optional[Callable[[str], bool]] = None,
        cpu_estimate: Optional[Callable[[Derivation], float]] = None,
        size_estimate: Optional[Callable[[Derivation, str], int]] = None,
        reuse_decider: Optional[ReuseDecider] = None,
        instrumentation: Optional[Instrumentation] = None,
        incremental: bool = False,
    ):
        self.catalog = catalog
        self.obs = instrumentation or NULL
        self.resolver = resolver or ReferenceResolver(catalog)
        self._has_replica = has_replica or (lambda lfn: False)
        self._cpu_estimate = cpu_estimate or (lambda dv: 1.0)
        #: None: the catalog's sizes, memoized (:meth:`_catalog_size`).
        self._size_estimate = size_estimate
        self._reuse_decider = reuse_decider or (lambda lfn, cpu: True)
        self._incremental = incremental
        # Memos.  Non-incremental planners clear these at every _plan
        # call (exactly a fresh planner's behavior); incremental ones
        # keep them across calls and invalidate through catalog events.
        self._tr_memo: dict = {}
        self._size_memo: dict[str, int] = {}
        self._cpu_memo: dict[str, float] = {}
        self._cost_memo: dict[str, float] = {}
        self._probes: dict[str, bool] = {}
        self._cached: Optional[_PlanCacheEntry] = None
        self._dirty_derivations: set[str] = set()
        self._dirty_datasets: set[str] = set()
        self._structure_dirty = False
        if incremental:
            catalog.subscribe(self._on_catalog_event)

    # -- event-driven invalidation (incremental mode) -----------------------

    def _on_catalog_event(self, event: str, kind: str, key: str) -> None:
        if kind == "derivation":
            self._cpu_memo.pop(key, None)
            # Any derivation change can shift many datasets' subtree
            # recompute costs; the memo rebuilds lazily.
            self._cost_memo.clear()
            if event == "put":
                self._dirty_derivations.add(key)
            else:
                self._structure_dirty = True
        elif kind == "dataset":
            self._size_memo.pop(key, None)
            if event == "put":
                self._dirty_datasets.add(key)
            else:
                self._structure_dirty = True
        elif kind == "replica":
            # A file replica is where a materialized dataset's size
            # comes from; the indexes name the dataset it (un)linked.
            for name in self.catalog._indexes.touched:
                self._size_memo.pop(name, None)
                self._dirty_datasets.add(name)
        elif kind == "transformation":
            self._tr_memo.clear()
            self._structure_dirty = True
        # Neither replica nor invocation events change plan structure;
        # replica effects on reuse are caught by re-probing has_replica
        # answers on every cache hit (sandbox files can also appear or
        # vanish with no catalog event at all).

    def _catalog_size(self, dv: Derivation, lfn: str) -> int:
        cached = self._size_memo.get(lfn)
        if cached is None:
            cached = self._size_memo[lfn] = self.catalog.dataset_size(
                lfn, 1_000_000
            )
        return cached

    # -- public -------------------------------------------------------------

    def plan(self, request: MaterializationRequest) -> Plan:
        """Build the workflow DAG satisfying ``request``."""
        with self.obs.span(
            "planner.plan",
            targets=",".join(request.targets),
            reuse=request.reuse,
        ) as span:
            plan = self._plan(request)
            if self.obs.enabled:
                span.set("steps", len(plan.steps))
                span.set("reused", len(plan.reused))
                self.obs.count("planner.plans", help="plans constructed")
                self.obs.count(
                    "planner.graph.cache.hits",
                    help="plans served from the catalog's live graph",
                )
                self.obs.count(
                    "planner.reuse.hits",
                    len(plan.reused),
                    help="datasets satisfied from existing replicas",
                )
                self.obs.observe(
                    "planner.plan.steps",
                    len(plan.steps),
                    # Spans single-step interactive plans through the
                    # 10^5-10^6-step campaign graphs of the scale
                    # benchmarks without collapsing the top decades
                    # into one overflow bucket.
                    buckets=(
                        0, 1, 2, 5, 10, 50, 100, 500, 1000, 5000,
                        10_000, 50_000, 100_000, 500_000, 1_000_000,
                    ),
                    help="workflow DAG size distribution",
                )
            return plan

    def _plan(self, request: MaterializationRequest) -> Plan:
        # The whole build runs under the catalog's re-entrant lock so
        # the shared live graph cannot change (another thread's write)
        # mid-walk; every catalog accessor used below re-enters the
        # same lock anyway.
        with self.catalog._lock:
            graph = self.catalog.derivation_graph()
            if self._incremental:
                patched = self._try_patch(request, graph)
                if patched is not None:
                    self._count_plan_cache(hit=True)
                    return patched
                self._count_plan_cache(hit=False)
            else:
                # A non-incremental planner must behave exactly like a
                # freshly constructed one on every call.
                self._tr_memo.clear()
                self._size_memo.clear()
                self._cpu_memo.clear()
                self._cost_memo.clear()
            return self._build(request, graph)

    def _count_plan_cache(self, hit: bool) -> None:
        if self.obs.enabled:
            self.obs.count(
                "planner.plan.cache.hits"
                if hit
                else "planner.plan.cache.misses",
                help="incremental plan cache outcomes",
            )

    def _build(self, request: MaterializationRequest, graph) -> Plan:
        draft = _Draft()
        self._probes = {}
        needed: list[str] = list(request.targets)
        visited: set[str] = set()
        while needed:
            dataset = needed.pop()
            if dataset in visited:
                continue
            visited.add(dataset)
            if self._maybe_reuse(dataset, request, graph):
                draft.reused.add(dataset)
                continue
            producers = graph.producer_names(dataset)
            if not producers:
                if self._probe_replica(dataset) or self.catalog.has_dataset(
                    dataset
                ):
                    draft.sources.add(dataset)
                    continue
                raise UnderivableError(
                    f"dataset {dataset!r} has no producing derivation and "
                    f"no known replica"
                )
            # Deterministic choice when multiple producers exist.
            producer_name = min(producers)
            self._expand_derivation(graph.derivation(producer_name), draft, graph)
            inputs = graph.input_names(producer_name)
            # Skip already-visited inputs before pushing: high-fan-in
            # graphs would otherwise blow the worklist up with
            # duplicates that each pop-and-discard pass re-touches.
            needed.extend(name for name in inputs if name not in visited)
        plan, producers = draft.plan(request)
        if self._incremental:
            self._cached = _PlanCacheEntry(
                key=(request.targets, request.reuse),
                plan=plan,
                visited=visited,
                probes=dict(self._probes),
                producers=producers,
            )
            self._dirty_derivations.clear()
            self._dirty_datasets.clear()
            self._structure_dirty = False
        return plan

    # -- incremental re-planning ---------------------------------------------

    def _try_patch(self, request: MaterializationRequest, graph) -> Optional[Plan]:
        """Serve the cached plan, patched in place, or None to rebuild.

        A hit updates and returns the *same* Plan object as the
        previous call — incremental plans are snapshots valid until the
        next ``plan()`` call, not independent copies.  The patch path
        is taken only when it provably reproduces what a full rebuild
        would: unchanged request, no structural changes (derivation or
        dataset additions/removals, transformation edits), content
        changes confined to existing simple steps with identical
        edges, and every previously consulted ``has_replica`` answer
        still current (re-probed here, since sandbox files can change
        with no catalog event).
        """
        cached = self._cached
        if cached is None or cached.key != (request.targets, request.reuse):
            return None
        if self._structure_dirty:
            return None
        if request.reuse == "cost" and (
            self._dirty_derivations or self._dirty_datasets
        ):
            # Cost-policy reuse decisions depend on cpu/size estimates;
            # patching those piecemeal could diverge from a fresh plan.
            return None
        plan = cached.plan
        size = self._size_estimate or self._catalog_size
        # Validate every dirty derivation; build replacement columns
        # without touching the plan so any bail-out leaves it intact.
        replacements: dict[str, tuple] = {}
        for key in sorted(self._dirty_derivations):
            step = plan.steps.get(key)
            if step is None:
                # Not a step of this plan.  Irrelevant — unless it
                # produces a dataset the walk visited (a new or
                # re-pointed producer, or part of a compound/pruned
                # subgraph), which restructures the plan.
                if cached.visited.intersection(graph.output_names(key)):
                    return None
                continue
            dv = graph.derivation(key)
            old = step.derivation
            if (
                dv.inputs() != step.inputs
                or dv.outputs() != step.outputs
                or dv.transformation != old.transformation
                or self._temp_datasets(dv) != self._temp_datasets(old)
            ):
                return None
            tr, _ = self._resolve_transformation(dv.transformation)
            if not isinstance(tr, SimpleTransformation):
                return None
            replacements[key] = (
                dv,
                tr,
                self._cpu_estimate(dv),
                {out: size(dv, out) for out in step.outputs},
            )
        # Size re-estimates for datasets whose records changed.
        for name in self._dirty_datasets:
            producer_id = cached.producers.get(name)
            if producer_id is None:
                continue
            producer = plan._names[producer_id]
            if producer not in replacements:
                step = plan.steps[producer]
                replacements[producer] = (
                    step.derivation,
                    step.transformation,
                    step.cpu_seconds,
                    step.output_sizes,
                )
            dv, _, _, sizes = replacements[producer]
            sizes[name] = size(dv, name)
        # Re-probe every replica answer the cached build consulted.
        for dataset, seen in cached.probes.items():
            if bool(self._has_replica(dataset)) != seen:
                return None
        # All clear: apply (cannot fail past this point).
        for key, (dv, tr, cpu, sizes) in replacements.items():
            plan._set_step(key, dv, tr, cpu, tuple(sizes.values()))
        self._dirty_derivations.clear()
        self._dirty_datasets.clear()
        return plan

    @staticmethod
    def _temp_datasets(dv: Derivation) -> set[str]:
        return {
            arg.dataset for _, arg in dv.dataset_args() if arg.temporary
        }

    def _probe_replica(self, dataset: str) -> bool:
        result = bool(self._has_replica(dataset))
        self._probes[dataset] = result
        return result

    # -- reuse policy ----------------------------------------------------------

    def _maybe_reuse(
        self,
        dataset: str,
        request: MaterializationRequest,
        graph: DerivationGraph,
    ) -> bool:
        if request.reuse == "never":
            return False
        if not self._probe_replica(dataset):
            return False
        if request.reuse == "always":
            return True
        # cost policy: estimate the cpu of the whole producing subtree.
        recompute_cpu = self._recompute_cost(dataset, graph)
        return self._reuse_decider(dataset, recompute_cpu)

    def _recompute_cost(self, dataset: str, graph: DerivationGraph) -> float:
        """Total cpu estimate of the subtree that derives ``dataset``.

        Exactly the cost ``required_for`` + sum used to compute — the
        *distinct* derivations of the backward closure, so diamonds are
        not double-counted — but walked over the shared graph without
        materializing a subgraph, with per-dataset results memoized
        (reverse-topological accumulation across repeated queries and
        re-plans) and per-derivation cpu estimates cached.
        """
        memo = self._cost_memo
        cached = memo.get(dataset)
        if cached is not None:
            return cached
        cpu_memo = self._cpu_memo
        total = 0.0
        for name in sorted(graph.upstream_derivations(dataset)):
            cpu = cpu_memo.get(name)
            if cpu is None:
                cpu = cpu_memo[name] = self._cpu_estimate(
                    graph.derivation(name)
                )
            total += cpu
        memo[dataset] = total
        return total

    # -- expansion --------------------------------------------------------------

    def _resolve_transformation(self, ref):
        """Resolver lookup memoized per reference.

        Resolution decodes the transformation from its stored XML —
        repeated for every derivation of the same transformation, it
        dominates plan expansion on homogeneous campaign graphs.
        Invalidated on any transformation event (incremental mode) or
        at every plan (non-incremental).
        """
        cached = self._tr_memo.get(ref)
        if cached is None:
            cached = self._tr_memo[ref] = self.resolver.transformation(ref)
        return cached

    def _expand_derivation(
        self, dv: Derivation, draft: "_Draft", graph: DerivationGraph
    ) -> None:
        if dv.name in draft.rows:
            return
        tr, _ = self._resolve_transformation(dv.transformation)
        if isinstance(tr, SimpleTransformation):
            edges = graph.input_names(dv.name), graph.output_names(dv.name)
            self._add_step(dv.name, dv, tr, draft, edges)
            return
        assert isinstance(tr, CompoundTransformation)
        self._expand_compound(dv.name, dv, tr, draft, depth=0)

    def _add_step(
        self,
        name: str,
        dv: Derivation,
        tr: SimpleTransformation,
        draft: "_Draft",
        edges: tuple[tuple[str, ...], tuple[str, ...]],
    ) -> None:
        inputs, outputs = edges
        size = self._size_estimate or self._catalog_size
        draft.rows[name] = (
            dv,
            tr,
            self._cpu_estimate(dv),
            draft.shared(tuple([size(dv, out) for out in outputs])),
            inputs,
            outputs,
        )
        for arg in dv.actuals.values():
            if isinstance(arg, DatasetArg) and arg.temporary:
                draft.temporaries.add(arg.dataset)

    def _expand_compound(
        self,
        prefix: str,
        dv: Derivation,
        tr: CompoundTransformation,
        draft: "_Draft",
        depth: int,
    ) -> None:
        """Flatten one compound call frame into concrete steps."""
        if depth > 32:
            raise PlanningError(
                f"compound transformation nesting exceeds 32 levels at "
                f"{tr.name!r} (cycle in compound definitions?)"
            )
        # The enclosing frame's formal -> actual environment.
        env: dict[str, DatasetArg | str] = {}
        for formal in tr.signature.formals:
            if formal.name in dv.actuals:
                env[formal.name] = dv.actuals[formal.name]
            elif formal.default is not None:
                if formal.is_string:
                    env[formal.name] = formal.default
                else:
                    scratch = f"{prefix}.{formal.name}"
                    env[formal.name] = DatasetArg(
                        dataset=scratch,
                        direction=formal.direction,
                        temporary=True,
                    )
                    draft.temporaries.add(scratch)
            else:
                raise PlanningError(
                    f"compound {tr.name!r}: formal {formal.name!r} unbound "
                    f"in derivation {dv.name!r} and has no default"
                )
        for i, call in enumerate(tr.calls):
            callee, _ = self._resolve_transformation(call.target)
            actuals: dict[str, DatasetArg | str] = {}
            for callee_formal_name, binding in call.bindings.items():
                callee_formal = callee.signature.formal(callee_formal_name)
                if isinstance(binding, FormalRef):
                    value = env[binding.name]
                    if isinstance(value, DatasetArg):
                        # Call-site direction: the callee's view.
                        direction = (
                            callee_formal.direction
                            if callee_formal.direction != "inout"
                            else (binding.direction or value.direction)
                        )
                        actuals[callee_formal_name] = DatasetArg(
                            dataset=value.dataset,
                            direction=direction,
                            temporary=value.temporary,
                        )
                    else:
                        actuals[callee_formal_name] = value
                else:
                    actuals[callee_formal_name] = binding
            sub_name = f"{prefix}.{i}.{callee.name}"
            sub_dv = Derivation(
                name=sub_name,
                transformation=call.target,
                actuals=actuals,
                environment=dict(dv.environment),
            )
            if isinstance(callee, CompoundTransformation):
                self._expand_compound(
                    sub_name, sub_dv, callee, draft, depth + 1
                )
            else:
                edges = sub_dv.inputs(), sub_dv.outputs()
                self._add_step(sub_name, sub_dv, callee, draft, edges)



#: The fields of a :class:`_Draft` row.
_DV, _TR, _CPU, _SIZES, _INPUTS, _OUTPUTS = range(6)


class _Draft:
    """A plan while the planner's walk is still adding steps: a row
    per step, in the order the walk reached them, which
    :meth:`plan` turns into a :class:`Plan`'s columns."""

    __slots__ = ("rows", "reused", "sources", "temporaries", "_sizes")

    def __init__(self):
        #: Step name -> (derivation, transformation, cpu estimate,
        #: output sizes, inputs, outputs).
        self.rows: dict[str, tuple] = {}
        self.reused: set[str] = set()
        self.sources: set[str] = set()
        self.temporaries: set[str] = set()
        self._sizes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def shared(self, sizes: tuple[int, ...]) -> tuple[int, ...]:
        """One tuple per distinct row of output sizes: the steps of one
        transformation mostly estimate alike."""
        return self._sizes.setdefault(sizes, sizes)

    def plan(self, request: MaterializationRequest) -> tuple[Plan, dict]:
        """The plan, and its dataset -> producing step id map.

        A dataset's producer is the last step the walk reached that
        writes it.  Steps whose every output is reused or unneeded are
        pruned, and a step waits for no pruned producer."""
        rows = self.rows
        if self.reused and rows:
            producer_of = {
                output: name
                for name, row in rows.items()
                for output in row[_OUTPUTS]
            }
            kept = self._needed(producer_of, request)
        else:
            kept = rows
        names = sorted(kept)
        ids = dict(zip(names, range(len(names))))
        # What each kept step writes, and what a step waits for: the
        # last writer of its input overall, unless that was pruned.
        producers = {
            output: ids[name]
            for name, row in rows.items()
            if name in ids
            for output in row[_OUTPUTS]
        }
        producer_id = producers if kept is rows else {
            output: ids[name]
            for output, name in producer_of.items()
            if name in ids
        }
        columns = list(map(rows.__getitem__, names))
        waits = (
            sorted(
                {
                    producer
                    for inp in row[_INPUTS]
                    if (producer := producer_id.get(inp)) is not None
                    and producer != step_id
                }
            )
            for step_id, row in enumerate(columns)
        )
        plan = Plan._columns(
            request.targets,
            names,
            ids,
            list(map(itemgetter(_DV), columns)),
            list(map(itemgetter(_TR), columns)),
            array("d", map(itemgetter(_CPU), columns)),
            list(map(itemgetter(_SIZES), columns)),
            edges(waits),
            self.reused,
            self.sources,
            self.temporaries,
        )
        return plan, producers

    def _needed(
        self, producer_of: dict[str, str], request: MaterializationRequest
    ) -> set[str]:
        """The steps some non-reused target still needs."""
        rows, reused = self.rows, self.reused

        def upstream(dataset: str) -> list[str]:
            step_name = producer_of.get(dataset)
            if step_name is None:
                return []
            return [
                inp for inp in rows[step_name][_INPUTS] if inp not in reused
            ]

        return {
            producer_of[dataset]
            for dataset in reachable(upstream, set(request.targets) - reused)
            if dataset in producer_of
        }
