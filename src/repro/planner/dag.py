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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

from repro.catalog.base import VirtualDataCatalog
from repro.catalog.resolver import ReferenceResolver
from repro.core.derivation import DatasetArg, Derivation
from repro.core.transformation import (
    CompoundTransformation,
    FormalRef,
    SimpleTransformation,
)
from repro.errors import (
    CycleError,
    CyclicDerivationError,
    PlanningError,
    UnderivableError,
)
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.request import MaterializationRequest
from repro.provenance.graph import DerivationGraph

# ---------------------------------------------------------------------------
# Shared topology helpers
#
# Both the planner and the incremental dataflow engine
# (:mod:`repro.analysis.dataflow`) need iterative, recursion-free graph
# walks that behave at 10^5-10^6 nodes.  They live here so there is one
# audited implementation of each.
# ---------------------------------------------------------------------------


def reachable(
    neighbors: Union[dict[str, set[str]], Callable[[str], Iterable[str]]],
    seeds: Iterable[str],
) -> set[str]:
    """The closure of ``seeds`` under ``neighbors`` (seeds included).

    ``neighbors`` is either an adjacency mapping (missing keys mean no
    edges) or a callable returning each node's successors.  Iterative
    BFS: safe on arbitrarily deep graphs and on cycles.
    """
    if callable(neighbors):
        expand = neighbors
    else:
        mapping = neighbors

        def expand(node: str) -> Iterable[str]:
            return mapping.get(node, ())

    seen: set[str] = set()
    frontier: list[str] = []
    for seed in seeds:
        if seed not in seen:
            seen.add(seed)
            frontier.append(seed)
    while frontier:
        node = frontier.pop()
        for nxt in expand(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def longest_chain(
    nodes: Iterable[str], deps: dict[str, Iterable[str]]
) -> int:
    """Length of the longest dependency chain over ``nodes``.

    ``deps`` maps a node to its predecessors; edges leaving ``nodes``
    are ignored.  Iterative (no recursion limit on deep graphs) and
    cycle-safe: raises :class:`~repro.errors.CycleError` instead of
    looping forever on a cyclic dependency map.
    """
    members = set(nodes)
    memo: dict[str, int] = {}
    on_stack: set[str] = set()
    for root in members:
        if root in memo:
            continue
        stack: list[str] = [root]
        while stack:
            name = stack[-1]
            if name in memo:
                stack.pop()
                on_stack.discard(name)
                continue
            pending = [
                d
                for d in deps.get(name, ())
                if d not in memo and d in members
            ]
            cyclic = [d for d in pending if d in on_stack]
            if cyclic:
                raise CycleError(
                    f"dependency cycle through node {cyclic[0]!r}"
                )
            if pending:
                on_stack.add(name)
                stack.extend(pending)
                continue
            memo[name] = 1 + max(
                (memo[d] for d in deps.get(name, ()) if d in memo),
                default=0,
            )
    return max(memo.values(), default=0)


@dataclass
class PlanStep:
    """One executable node: a concrete derivation of a simple TR."""

    name: str
    derivation: Derivation
    transformation: SimpleTransformation
    #: Estimated cpu seconds (filled by the estimator; default heuristic).
    cpu_seconds: float = 1.0
    #: Output LFN -> estimated size in bytes.
    output_sizes: dict[str, int] = field(default_factory=dict)

    # Computed once per step: ``Derivation.inputs()``/``outputs()``
    # sort a fresh set per call, and planner, frontier and scheduler
    # each ask every step.  A step's derivation is never swapped —
    # a re-plan that changes it builds a new step.
    @cached_property
    def inputs(self) -> tuple[str, ...]:
        return self.derivation.inputs()

    @cached_property
    def outputs(self) -> tuple[str, ...]:
        return self.derivation.outputs()


@dataclass
class Plan:
    """An executable workflow DAG plus its boundary conditions."""

    targets: tuple[str, ...]
    steps: dict[str, PlanStep] = field(default_factory=dict)
    #: step name -> names of steps that must complete first.
    dependencies: dict[str, set[str]] = field(default_factory=dict)
    #: Datasets satisfied from existing replicas (reuse decisions).
    reused: set[str] = field(default_factory=set)
    #: Raw source datasets that must pre-exist on the grid.
    sources: set[str] = field(default_factory=set)
    #: Scratch datasets that may be deleted after the workflow.
    temporaries: set[str] = field(default_factory=set)

    def check_frontier_consistency(self) -> None:
        """Verify the dependency map and step set agree.

        A step missing from ``dependencies`` would never be dispatched,
        and a dependency naming a step that is not in ``steps`` (e.g. a
        predecessor pruned as a reused subgraph without fixing up the
        edge) would leave its dependent unready forever.  Both used to
        pass silently; now they raise :class:`PlanningError`.

        The result is memoized against the (step count, dependency
        count) pair so frontier construction over a large unchanged
        plan does not re-pay an O(V+E) validation — mutations that
        preserve both counts exactly are not re-detected.
        """
        marker = (len(self.steps), len(self.dependencies))
        if self.__dict__.get("_consistent_at") == marker:
            return
        orphans = [name for name in self.steps if name not in self.dependencies]
        if orphans:
            raise PlanningError(
                f"plan inconsistent: steps missing from the dependency "
                f"map would never dispatch: {sorted(orphans)[:6]}"
            )
        # A real set, built once: ``deps - dict.keys()`` falls off the
        # set-difference fast path and turns this loop quadratic.
        step_names = set(self.steps)
        for name, deps in self.dependencies.items():
            if name not in step_names:
                raise PlanningError(
                    f"plan inconsistent: dependency entry for unknown "
                    f"step {name!r}"
                )
            dangling = deps - step_names
            if dangling:
                raise PlanningError(
                    f"plan inconsistent: step {name!r} depends on pruned "
                    f"or unknown steps {sorted(dangling)[:6]}"
                )
        self.__dict__["_consistent_at"] = marker

    def frontier_shape(
        self,
    ) -> tuple[dict[str, int], dict[str, list[str]]]:
        """Memoized frontier template: (missing counts, dependents).

        Building a :class:`Frontier` over a 10^5-10^6-step plan is an
        O(V+E) dict construction; re-plans and repeated frontiers over
        the same plan reuse this template (each frontier copies the
        mutable counts, the dependents map is shared read-only).
        Memoized against the (step count, dependency count) pair, like
        :meth:`check_frontier_consistency`.
        """
        marker = (len(self.steps), len(self.dependencies))
        cached = self.__dict__.get("_frontier_shape")
        if cached is not None and cached[0] == marker:
            return cached[1], cached[2]
        missing = {name: len(deps) for name, deps in self.dependencies.items()}
        dependents: dict[str, list[str]] = {}
        for name, deps in self.dependencies.items():
            for dep in deps:
                dependents.setdefault(dep, []).append(name)
        self.__dict__["_frontier_shape"] = (marker, missing, dependents)
        return missing, dependents

    def ready_steps(self, done: set[str]) -> list[str]:
        """Steps whose prerequisites are all in ``done`` and that are
        not themselves done, in name order (deterministic dispatch)."""
        self.check_frontier_consistency()
        return sorted(
            name
            for name, deps in self.dependencies.items()
            if name not in done and deps <= done
        )

    def frontier(self, done: Optional[set[str]] = None) -> "Frontier":
        """An incremental ready-set tracker over this plan's DAG."""
        return Frontier(self, done=done)

    def topological_order(self) -> list[str]:
        """Step names in a valid execution order.

        Raises :class:`~repro.errors.CyclicDerivationError` (a
        :class:`~repro.errors.CycleError`) naming the steps stuck on a
        cycle, matching what the static ``VDG301`` rule reports.
        """
        frontier = Frontier(self)
        order: list[str] = []
        while not frontier.exhausted:
            ready = frontier.ready()
            if not ready:
                stuck = sorted(set(self.steps) - frontier.completed)
                raise CyclicDerivationError(
                    f"plan contains a dependency cycle involving: {stuck[:6]}"
                )
            order.extend(ready)
            for name in ready:
                frontier.complete(name)
        return order

    def width(self) -> int:
        """Maximum number of steps runnable concurrently (antichain)."""
        frontier = Frontier(self)
        best = 0
        while not frontier.exhausted:
            ready = frontier.ready()
            if not ready:
                break
            best = max(best, len(ready))
            for name in ready:
                frontier.complete(name)
        return best

    def depth(self) -> int:
        """Length of the longest dependency chain.

        Iterative (no recursion limit on deep plans) and cycle-safe:
        raises :class:`~repro.errors.CycleError` instead of recursing
        forever when handed a cyclic dependency map.
        """
        try:
            return longest_chain(self.steps, self.dependencies)
        except CycleError as exc:
            message = str(exc).replace("cycle through node", "cycle through step")
            raise CycleError(f"plan {message}") from None

    def producers(self) -> dict[str, str]:
        """Dataset name -> producing step name."""
        out = {}
        for name, step in self.steps.items():
            for dataset in step.outputs:
                out[dataset] = name
        return out

    def total_cpu_seconds(self) -> float:
        return sum(step.cpu_seconds for step in self.steps.values())

    def __len__(self) -> int:
        return len(self.steps)


class Frontier:
    """Incremental ready-set tracking over a :class:`Plan`'s DAG.

    Dispatchers used to rescan ``Plan.ready_steps(done)`` after every
    completion — O(V·E) over a whole run.  The frontier instead keeps a
    per-step count of unfinished predecessors and decrements it as
    steps complete, so releasing the whole run's worth of work is
    O(V+E) total.  Steps whose counts reach zero join the ready set and
    stay there until :meth:`complete` is called for them, which is what
    lets callers track in-flight work against the same set.

    The constructor validates the plan (see
    :meth:`Plan.check_frontier_consistency`); ``done`` pre-completes
    steps already satisfied, e.g. by a rescue file.
    """

    def __init__(self, plan: Plan, done: Optional[set[str]] = None):
        plan.check_frontier_consistency()
        missing, dependents = plan.frontier_shape()
        self._total = len(plan.steps)
        self.completed: set[str] = set()
        # Own copy of the counts (decremented in complete()); the
        # dependents map is shared with the plan's template, read-only.
        self._missing: dict[str, int] = dict(missing)
        self._dependents: dict[str, list[str]] = dependents
        self._ready: set[str] = {
            name for name, count in self._missing.items() if count == 0
        }
        if done:
            for name in done:
                if name in plan.steps and name not in self.completed:
                    # Pre-completed steps may arrive in any order, so a
                    # dependent of one may complete before it; tolerate
                    # the resulting double release.
                    self._force_release(name)
                    self.complete(name)

    def _force_release(self, name: str) -> None:
        if name not in self.completed:
            self._missing[name] = 0
            self._ready.add(name)

    def ready(self) -> list[str]:
        """Released, uncompleted steps in name order (deterministic)."""
        return sorted(self._ready)

    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def exhausted(self) -> bool:
        """True when every step has completed."""
        return len(self.completed) >= self._total

    def remaining(self) -> int:
        return self._total - len(self.completed)

    def complete(self, name: str) -> list[str]:
        """Mark ``name`` done; returns the steps this newly releases."""
        if name in self.completed:
            return []
        if name not in self._missing:
            raise PlanningError(f"frontier: unknown step {name!r}")
        self.completed.add(name)
        self._ready.discard(name)
        released: list[str] = []
        for dependent in self._dependents.get(name, ()):
            if dependent in self.completed:
                continue
            count = self._missing[dependent] - 1
            self._missing[dependent] = count
            if count == 0:
                self._ready.add(dependent)
                released.append(dependent)
        return sorted(released)


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
        #: dataset -> producing step name (for size re-estimates).
        self.producers = producers


class Planner:
    """Expands requests against one catalog (and optional resolver).

    With ``incremental=True`` the planner subscribes to the catalog's
    mutation-event stream and caches its last plan: a re-plan of the
    same request after localized changes (e.g. one derivation's
    metadata edited) patches only the affected steps instead of
    re-walking the whole graph, and ``has_replica`` answers are
    re-probed on every hit so out-of-band sandbox changes still force a
    rebuild.  Incremental mode requires the estimate callables
    (``cpu_estimate``/``size_estimate``) to be pure functions of
    catalog state — estimators that train between calls (the grid
    executor's) must keep the default ``incremental=False``.
    """

    def __init__(
        self,
        catalog: VirtualDataCatalog,
        resolver: Optional[ReferenceResolver] = None,
        has_replica: Optional[Callable[[str], bool]] = None,
        cpu_estimate: Optional[Callable[[Derivation], float]] = None,
        size_estimate: Optional[Callable[[str], int]] = None,
        reuse_decider: Optional[ReuseDecider] = None,
        instrumentation: Optional[Instrumentation] = None,
        incremental: bool = False,
    ):
        self.catalog = catalog
        self.obs = instrumentation or NULL
        self.resolver = resolver or ReferenceResolver(catalog)
        self._has_replica = has_replica or (lambda lfn: False)
        self._cpu_estimate = cpu_estimate or (lambda dv: 1.0)
        self._size_estimate = size_estimate or self._catalog_size
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
        elif kind == "transformation":
            self._tr_memo.clear()
            self._structure_dirty = True
        # Replica and invocation events never change plan structure;
        # replica effects are caught by re-probing has_replica answers
        # on every cache hit (sandbox files can also appear or vanish
        # with no catalog event at all).

    def _catalog_size(self, lfn: str) -> int:
        cached = self._size_memo.get(lfn)
        if cached is not None:
            return cached
        # Straight off the payload document: decoding a full Dataset
        # per plan-step output dominates plan construction at 10^5+
        # steps, and the size lives in two known payload spots.  The
        # peek (vs _cached_payload) keeps bulk planner walks from
        # evicting the LRU's working set one dataset at a time.
        payload = self.catalog._peek_payload("dataset", lfn)
        if payload is None:
            size = 1_000_000
        else:
            attr = (payload.get("attributes") or {}).get("size")
            if isinstance(attr, (int, float)):
                size = int(attr)
            elif payload.get("descriptor"):
                from repro.core.descriptors import descriptor_from_dict

                nominal = descriptor_from_dict(
                    payload["descriptor"]
                ).nominal_size()
                size = nominal if nominal is not None else 1_000_000
            else:
                size = 1_000_000
        self._size_memo[lfn] = size
        return size

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
        plan = Plan(targets=request.targets)
        self._probes = {}
        needed: list[str] = list(request.targets)
        visited: set[str] = set()
        while needed:
            dataset = needed.pop()
            if dataset in visited:
                continue
            visited.add(dataset)
            if self._maybe_reuse(dataset, request, graph):
                plan.reused.add(dataset)
                continue
            producers = graph.producer_names(dataset)
            if not producers:
                if self._probe_replica(dataset) or self.catalog.has_dataset(
                    dataset
                ):
                    plan.sources.add(dataset)
                    continue
                raise UnderivableError(
                    f"dataset {dataset!r} has no producing derivation and "
                    f"no known replica"
                )
            # Deterministic choice when multiple producers exist.
            producer_name = min(producers)
            dv = graph.derivation(producer_name)
            self._expand_derivation(dv, plan)
            # A simple derivation is its own step, which knows its
            # inputs already; a compound one expanded into several.
            step = plan.steps.get(producer_name)
            inputs = dv.inputs() if step is None else step.inputs
            # Skip already-visited inputs before pushing: high-fan-in
            # graphs would otherwise blow the worklist up with
            # duplicates that each pop-and-discard pass re-touches.
            needed.extend(name for name in inputs if name not in visited)
        self._wire_dependencies(plan)
        self._prune_reused_subgraphs(plan, request)
        if self._incremental:
            self._cached = _PlanCacheEntry(
                key=(request.targets, request.reuse),
                plan=plan,
                visited=visited,
                probes=dict(self._probes),
                producers=plan.producers(),
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
        # Validate every dirty derivation; build replacement steps
        # without touching the plan so any bail-out leaves it intact.
        replacements: dict[str, PlanStep] = {}
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
            replacements[key] = PlanStep(
                name=key,
                derivation=dv,
                transformation=tr,
                cpu_seconds=self._cpu_estimate(dv),
                output_sizes={
                    out: self._size_estimate(out) for out in dv.outputs()
                },
            )
        # Size re-estimates for datasets whose records changed.
        size_patches: dict[str, dict[str, int]] = {}
        for name in self._dirty_datasets:
            producer = cached.producers.get(name)
            if producer is None or producer not in plan.steps:
                continue
            new_size = self._size_estimate(name)
            target = replacements.get(producer, plan.steps[producer])
            if target.output_sizes.get(name) != new_size:
                size_patches.setdefault(producer, {})[name] = new_size
        # Re-probe every replica answer the cached build consulted.
        for dataset, seen in cached.probes.items():
            if bool(self._has_replica(dataset)) != seen:
                return None
        # All clear: apply (cannot fail past this point).
        plan.steps.update(replacements)
        for producer, sizes in size_patches.items():
            plan.steps[producer].output_sizes.update(sizes)
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

    def _expand_derivation(self, dv: Derivation, plan: Plan) -> None:
        if dv.name in plan.steps:
            return
        tr, _ = self._resolve_transformation(dv.transformation)
        if isinstance(tr, SimpleTransformation):
            self._add_step(dv.name, dv, tr, plan)
            return
        assert isinstance(tr, CompoundTransformation)
        self._expand_compound(dv.name, dv, tr, plan, depth=0)

    def _add_step(
        self,
        name: str,
        dv: Derivation,
        tr: SimpleTransformation,
        plan: Plan,
    ) -> None:
        step = PlanStep(
            name=name,
            derivation=dv,
            transformation=tr,
            cpu_seconds=self._cpu_estimate(dv),
        )
        step.output_sizes = {
            out: self._size_estimate(out) for out in step.outputs
        }
        plan.steps[name] = step
        for _, arg in dv.dataset_args():
            if arg.temporary:
                plan.temporaries.add(arg.dataset)

    def _expand_compound(
        self,
        prefix: str,
        dv: Derivation,
        tr: CompoundTransformation,
        plan: Plan,
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
                    plan.temporaries.add(scratch)
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
                self._expand_compound(sub_name, sub_dv, callee, plan, depth + 1)
            else:
                self._add_step(sub_name, sub_dv, callee, plan)

    # -- dependency wiring -------------------------------------------------------

    def _wire_dependencies(self, plan: Plan) -> None:
        producer_of: dict[str, str] = {}
        for name, step in plan.steps.items():
            for output in step.outputs:
                producer_of[output] = name
        for name, step in plan.steps.items():
            deps = {
                producer_of[inp]
                for inp in step.inputs
                if inp in producer_of and producer_of[inp] != name
            }
            plan.dependencies[name] = deps

    def _prune_reused_subgraphs(
        self, plan: Plan, request: MaterializationRequest
    ) -> None:
        """Drop steps whose every output is reused or unneeded."""
        if not plan.reused:
            return
        needed_datasets: set[str] = set(request.targets) - plan.reused
        producer_of = plan.producers()

        def upstream_steps(dataset: str) -> list[str]:
            step_name = producer_of.get(dataset)
            if step_name is None:
                return []
            return [
                inp
                for inp in plan.steps[step_name].inputs
                if inp not in plan.reused
            ]

        needed_steps = {
            producer_of[ds]
            for ds in reachable(upstream_steps, needed_datasets)
            if ds in producer_of
        }
        for name in list(plan.steps):
            if name not in needed_steps:
                del plan.steps[name]
                del plan.dependencies[name]
        for name in plan.dependencies:
            plan.dependencies[name] &= set(plan.steps)
