"""The one topological walk and every consumer of it.

``topological_levels`` is checked against a brute force (longest
predecessor chain by relaxation, stuck nodes by reachability) on
random digraphs — DAGs, predecessors that are not keys, self-loops and
cycles.  Each consumer is checked against the algorithm it replaced,
kept here as the reference: Kahn drains of a ``Frontier``, a DFS
longest chain, an indegree-loop CPM, a round-rescanning list
scheduler and a deque Kahn over the bipartite graph.
"""

from __future__ import annotations

import heapq
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.derivation import DatasetArg, Derivation
from repro.core.naming import VDPRef
from repro.core.topology import reachable, topological_levels
from repro.core.transformation import SimpleTransformation
from repro.errors import (
    CycleError,
    CyclicDerivationError,
    EstimationError,
    PlanningError,
)
from repro.estimator.workflow import estimate_plan
from repro.observability.analysis import compute_slack
from repro.planner.dag import Frontier, Plan, PlanStep
from repro.provenance.graph import (
    DATASET,
    DERIVATION,
    DerivationGraph,
    Node,
)

#: Node names whose name order is unrelated to any dependency order.
LABELS = ["m", "c", "x", "a", "q", "k", "b", "z", "f", "s", "h", "e"]
GHOSTS = ["ghost", "a0", "zz"]


# -- brute force --------------------------------------------------------------


def brute_levels(deps) -> tuple[dict[str, int], set[str]]:
    """(longest predecessor chain per placeable node, unplaceable nodes)."""
    nodes = set(deps)
    succ: dict[str, set[str]] = {n: set() for n in nodes}
    for node, preds in deps.items():
        for pred in preds:
            if pred in nodes:
                succ[pred].add(node)

    def closure(seeds):
        seen = set(seeds)
        while True:
            grown = seen.union(*(succ[n] for n in seen))
            if grown == seen:
                return seen
            seen = grown

    on_cycle = {n for n in nodes if n in closure(succ[n])}
    stuck = closure(on_cycle)
    chain = {n: 0 for n in nodes - stuck}
    for _ in range(len(nodes)):
        for node in chain:
            for pred in deps[node]:
                if pred in chain:
                    chain[node] = max(chain[node], chain[pred] + 1)
    return chain, stuck


@st.composite
def digraphs(draw):
    """Any digraph: self-loops, cycles and non-key predecessors."""
    names = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=9))
    pool = st.sampled_from(names + GHOSTS)
    return {
        name: draw(st.sets(pool, max_size=3)) for name in names
    }


@st.composite
def dags(draw, ghosts=True, max_nodes=10):
    """A DAG: each node's predecessors come before it in a random
    order of the labels (so name order is no topological order)."""
    names = draw(st.permutations(LABELS))[: draw(st.integers(0, max_nodes))]
    deps: dict[str, set[str]] = {}
    for i, name in enumerate(names):
        earlier = names[:i] + (GHOSTS if ghosts else [])
        deps[name] = (
            draw(st.sets(st.sampled_from(earlier), max_size=3))
            if earlier
            else set()
        )
    return deps


# -- the routine ---------------------------------------------------------------


def check_levels(deps) -> None:
    chain, stuck = brute_levels(deps)
    if stuck:
        with pytest.raises(CycleError) as caught:
            topological_levels(deps)
        assert str(caught.value) == (
            f"dependency cycle through {sorted(stuck)[:6]}"
        )
        return
    levels = topological_levels(deps)
    order = [name for level in levels for name in level]
    assert sorted(order) == sorted(deps)
    for k, level in enumerate(levels):
        assert level == sorted(level)
        assert all(chain[name] == k for name in level)
    position = {name: i for i, name in enumerate(order)}
    for name, preds in deps.items():
        for pred in preds:
            if pred in deps:
                assert position[pred] < position[name]


class TestLevels:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_any_digraph_matches_brute_force(self, deps):
        check_levels(deps)

    @settings(max_examples=200, deadline=None)
    @given(dags())
    def test_dags_match_brute_force(self, deps):
        check_levels(deps)

    def test_examples(self):
        assert topological_levels({}) == []
        assert topological_levels(
            {"b": {"a"}, "a": set(), "c": {"a", "ghost"}}
        ) == [["a"], ["b", "c"]]
        with pytest.raises(CycleError) as caught:
            topological_levels({"a": {"a"}, "b": {"a"}, "c": set()})
        assert str(caught.value) == "dependency cycle through ['a', 'b']"

    def test_names_at_most_six_stuck_nodes(self):
        ring = {f"n{i}": {f"n{(i + 1) % 9}"} for i in range(9)}
        with pytest.raises(CycleError) as caught:
            topological_levels(ring)
        assert str(caught.value) == "dependency cycle through " + str(
            [f"n{i}" for i in range(6)]
        )

    def test_raises_the_callers_error_with_its_prefix(self):
        with pytest.raises(CyclicDerivationError) as caught:
            topological_levels({"a": {"a"}}, CyclicDerivationError, "loop at")
        assert str(caught.value) == "loop at ['a']"


class TestReachable:
    def test_closure_includes_seeds_and_survives_cycles(self):
        succ = {"a": ["b"], "b": ["c", "a"], "c": []}

        def successors(node):
            return succ.get(node, ())

        assert reachable(successors, ["a"]) == {"a", "b", "c"}
        assert reachable(successors, ["c", "x"]) == {"c", "x"}
        assert reachable(successors, []) == set()

    def test_deep_chain(self):
        def successors(node):
            return [f"s{int(node[1:]) + 1}"] if node != "s9999" else []

        assert len(reachable(successors, ["s0"])) == 10_000


# -- the algorithms the consumers used to run ------------------------------------


def reference_topological_order(plan: Plan) -> list[str]:
    frontier = Frontier(plan)
    order: list[str] = []
    while not frontier.exhausted:
        ready = frontier.ready()
        if not ready:
            raise CyclicDerivationError("cycle")
        order.extend(ready)
        for name in ready:
            frontier.complete(name)
    return order


def reference_width(plan: Plan) -> int:
    frontier = Frontier(plan)
    best = 0
    while not frontier.exhausted:
        ready = frontier.ready()
        if not ready:
            break
        best = max(best, len(ready))
        for name in ready:
            frontier.complete(name)
    return best


def reference_longest_chain(nodes, deps) -> int:
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
            if any(d in on_stack for d in pending):
                raise CycleError("cycle")
            if pending:
                on_stack.add(name)
                stack.extend(pending)
                continue
            memo[name] = 1 + max(
                (memo[d] for d in deps.get(name, ()) if d in memo),
                default=0,
            )
    return max(memo.values(), default=0)


def reference_estimate_plan(
    plan, host_count, input_bytes=None, bandwidth=10e6,
    include_intermediates=False,
):
    sizes = dict(input_bytes or {})
    if include_intermediates:
        for step in plan.steps.values():
            sizes.update(step.output_sizes)

    def step_seconds(name):
        step = plan.steps[name]
        transfer = sum(sizes.get(lfn, 0) / bandwidth for lfn in step.inputs)
        return transfer, step.cpu_seconds

    finish = {}
    for name in reference_topological_order(plan):
        transfer, cpu = step_seconds(name)
        ready = max(
            (finish[dep] for dep in plan.dependencies[name]), default=0.0
        )
        finish[name] = ready + transfer + cpu
    critical_path = max(finish.values())
    hosts = [0.0] * host_count
    heapq.heapify(hosts)
    done_at = {}
    total_transfer = 0.0
    remaining = set(plan.steps)
    completed = set()
    while remaining:
        ready = [
            n for n in sorted(remaining) if plan.dependencies[n] <= completed
        ]
        if not ready:
            raise EstimationError("plan has a dependency cycle")
        ready.sort(
            key=lambda n: (
                max((done_at[d] for d in plan.dependencies[n]), default=0.0),
                n,
            )
        )
        for name in ready:
            transfer, cpu = step_seconds(name)
            data_ready = max(
                (done_at[d] for d in plan.dependencies[name]), default=0.0
            )
            host_free = heapq.heappop(hosts)
            start = max(data_ready, host_free)
            end = start + transfer + cpu
            heapq.heappush(hosts, end)
            done_at[name] = end
            total_transfer += transfer
            remaining.discard(name)
            completed.add(name)
    return max(done_at.values()), total_transfer, critical_path


def reference_compute_slack(record) -> dict[str, float]:
    timings = record.step_timings()
    if not timings:
        return {}
    deps = {
        name: [d for d in ds if d in timings]
        for name, ds in record.dependencies().items()
        if name in timings
    }
    for name in timings:
        deps.setdefault(name, [])
    durations = {n: t["end"] - t["start"] for n, t in timings.items()}
    dependents: dict[str, list[str]] = {n: [] for n in timings}
    missing = {n: len(ds) for n, ds in deps.items()}
    for name, ds in deps.items():
        for d in ds:
            dependents[d].append(name)
    order = [n for n, d in missing.items() if d == 0]
    cursor = 0
    while cursor < len(order):
        name = order[cursor]
        cursor += 1
        for child in dependents[name]:
            missing[child] -= 1
            if missing[child] == 0:
                order.append(child)
    earliest_finish: dict[str, float] = {}
    for name in order:
        start = max((earliest_finish[d] for d in deps[name]), default=0.0)
        earliest_finish[name] = start + durations[name]
    project_end = max(earliest_finish.values())
    latest_finish: dict[str, float] = {}
    for name in reversed(order):
        succ = dependents[name]
        if not succ:
            latest_finish[name] = project_end
        else:
            latest_finish[name] = min(
                latest_finish[c] - durations[c] for c in succ
            )
    return {
        name: max(latest_finish[name] - earliest_finish[name], 0.0)
        for name in timings
    }


def reference_graph_order(graph: DerivationGraph) -> list[Node]:
    producers, consumers, inputs, outputs = graph.adjacency()
    missing = {(DATASET, n): len(p) for n, p in producers.items()}
    missing.update(((DERIVATION, n), len(i)) for n, i in inputs.items())
    ready = deque(sorted(n for n, d in missing.items() if d == 0))
    order: list[Node] = []
    while ready:
        kind, name = ready.popleft()
        order.append(Node(kind, name))
        if kind == DATASET:
            nxt_kind, names = DERIVATION, consumers[name]
        else:
            nxt_kind, names = DATASET, outputs[name]
        for nxt in sorted(names):
            missing[nxt_kind, nxt] -= 1
            if missing[nxt_kind, nxt] == 0:
                ready.append((nxt_kind, nxt))
    if len(order) != len(missing):
        raise CyclicDerivationError("cycle")
    return order


def reference_graph_depth(graph: DerivationGraph) -> int:
    producers, _, inputs, _ = graph.adjacency()
    longest: dict[tuple[str, str], int] = {}
    for node in reference_graph_order(graph):
        if node.kind == DATASET:
            kind, names = DERIVATION, producers[node.name]
        else:
            kind, names = DATASET, inputs[node.name]
        here = max((longest[kind, n] for n in names), default=0)
        longest[node.kind, node.name] = here + (node.kind == DERIVATION)
    return max(longest.values(), default=0)


# -- consumers ----------------------------------------------------------------


TR = SimpleTransformation(name="noop", formals=[], executable="/bin/true")


def make_plan(deps, cpu=None, sizes=None) -> Plan:
    """One step per node, reading ``d.<pred>`` and writing ``d.<name>``."""
    steps = {}
    for name, preds in deps.items():
        actuals = {"o": DatasetArg(f"d.{name}", "output")}
        for k, pred in enumerate(sorted(preds)):
            actuals[f"i{k}"] = DatasetArg(f"d.{pred}", "input")
        steps[name] = PlanStep(
            name=name,
            derivation=Derivation(
                name=name,
                transformation=VDPRef("noop", kind="transformation"),
                actuals=actuals,
            ),
            transformation=TR,
            cpu_seconds=(cpu or {}).get(name, 1.0),
            output_sizes={f"d.{name}": (sizes or {}).get(name, 0)},
        )
    return Plan(
        targets=("t",),
        steps=steps,
        dependencies={name: set(preds) for name, preds in deps.items()},
    )


class TimedRecord:
    """The two things ``compute_slack`` reads of a run record."""

    def __init__(self, timings, deps):
        self._timings = timings
        self._deps = deps

    def step_timings(self):
        return self._timings

    def dependencies(self):
        return self._deps


seconds = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)


class TestConsumersMatchTheReferences:
    @settings(max_examples=150, deadline=None)
    @given(dags(ghosts=False), st.data())
    def test_plan_order_width_depth_and_estimate(self, deps, data):
        cpu = {n: data.draw(seconds) for n in deps}
        sizes = {n: data.draw(st.integers(0, 10**9)) for n in deps}
        plan = make_plan(deps, cpu, sizes)
        assert plan.topological_order() == reference_topological_order(plan)
        assert plan.width() == reference_width(plan)
        assert plan.depth() == reference_longest_chain(plan.steps, deps)
        assert plan.levels() == topological_levels(deps)
        if not deps:
            return
        staged = {f"d.{n}": s for n, s in sizes.items()}
        for hosts in (1, 2, 5):
            for intermediates in (False, True):
                got = estimate_plan(
                    plan, hosts, input_bytes=staged,
                    include_intermediates=intermediates,
                )
                want = reference_estimate_plan(
                    plan, hosts, input_bytes=staged,
                    include_intermediates=intermediates,
                )
                assert (
                    got.makespan_seconds,
                    got.total_transfer_seconds,
                    got.critical_path_seconds,
                ) == want

    @settings(max_examples=150, deadline=None)
    @given(dags(ghosts=True), st.data())
    def test_slack(self, deps, data):
        timings = {}
        for name in deps:
            start = data.draw(seconds)
            timings[name] = {
                "step": name, "start": start, "end": start + data.draw(seconds)
            }
        # Some dependents of ghosts never ran; some steps record no deps.
        record = TimedRecord(
            timings,
            {n: ds for n, ds in deps.items() if data.draw(st.booleans())},
        )
        assert compute_slack(record) == reference_compute_slack(record)

    @settings(max_examples=100, deadline=None)
    @given(dags(ghosts=True))
    def test_plan_depth_ignores_steps_outside_the_plan(self, deps):
        plan = make_plan(deps)
        assert plan.depth() == reference_longest_chain(plan.steps, deps)
        if any(preds - set(deps) for preds in deps.values()):
            with pytest.raises(PlanningError):
                plan.topological_order()
            with pytest.raises(PlanningError):
                plan.width()

    @settings(max_examples=150, deadline=None)
    @given(digraphs())
    def test_plan_cycles_name_the_stuck_steps(self, deps):
        deps = {n: {p for p in ds if p in deps} for n, ds in deps.items()}
        _, stuck = brute_levels(deps)
        plan = make_plan(deps)
        if not stuck:
            assert plan.topological_order() == reference_topological_order(plan)
            return
        for method in (plan.topological_order, plan.depth, plan.levels):
            with pytest.raises(CyclicDerivationError) as caught:
                method()
            assert str(caught.value) == (
                f"plan dependency cycle through steps {sorted(stuck)[:6]}"
            )
        with pytest.raises(CyclicDerivationError):
            estimate_plan(plan, 2)
        # width() still reports the widest level before the cycle.
        assert plan.width() == reference_width(plan)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(LABELS),
            st.tuples(
                st.sets(st.sampled_from(LABELS), max_size=3),
                st.sets(st.sampled_from(LABELS), min_size=1, max_size=2),
            ),
            max_size=8,
        )
    )
    def test_derivation_graph(self, edges):
        """Derivations ``dv.<name>`` over datasets named by LABELS."""
        graph = DerivationGraph()
        for name, (inputs, outputs) in edges.items():
            graph.add_derivation_edges(f"dv.{name}", inputs, outputs)
        try:
            reference_graph_order(graph)
        except CyclicDerivationError:
            assert not graph.is_acyclic()
            with pytest.raises(CyclicDerivationError):
                graph.topological_order()
            with pytest.raises(CyclicDerivationError):
                graph.depth()
            return
        assert graph.is_acyclic()
        assert graph.depth() == reference_graph_depth(graph)
        order = graph.topological_order()
        assert sorted(order, key=str) == sorted(graph.nodes(), key=str)
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            for succ in graph.successors(node):
                assert position[node] < position[succ]


# -- deep chains ---------------------------------------------------------------


class CountingDeps(dict):
    """A dependency map that counts key lookups."""

    lookups = 0

    def __getitem__(self, key):
        CountingDeps.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        CountingDeps.lookups += 1
        return super().__contains__(key)


class TestDeepChains:
    """Far past the interpreter's recursion limit, and linear."""

    DEPTH = 5000

    def chain(self):
        return {
            f"s{i:04d}": ({f"s{i - 1:04d}"} if i else set())
            for i in range(self.DEPTH)
        }

    def test_derivation_graph(self):
        graph = DerivationGraph()
        for i in range(self.DEPTH):
            graph.add_derivation_edges(
                f"s{i}", [f"d{i - 1}"] if i else [], [f"d{i}"]
            )
        assert graph.depth() == self.DEPTH
        assert graph.is_acyclic()
        assert graph.topological_order() == [
            Node(kind, name)
            for i in range(self.DEPTH)
            for kind, name in ((DERIVATION, f"s{i}"), (DATASET, f"d{i}"))
        ]

    def test_compute_slack(self):
        deps = self.chain()
        timings = {}
        clock = 0.0
        for i, name in enumerate(deps):
            end = clock + 1.0 + i % 7
            timings[name] = {"step": name, "start": clock, "end": end}
            clock = end
        # One short side step off the middle of the chain.
        timings["side"] = {"step": "side", "start": 0.0, "end": 2.0}
        deps["side"] = {"s2500"}
        slack = compute_slack(TimedRecord(timings, deps))
        assert slack == reference_compute_slack(TimedRecord(timings, deps))
        assert all(slack[name] == 0.0 for name in timings if name != "side")
        assert slack["side"] > 0.0

    def test_estimate_plan_is_linear(self):
        deps = self.chain()
        plan = make_plan(deps)
        plan.dependencies = CountingDeps(plan.dependencies)
        CountingDeps.lookups = 0
        estimate = estimate_plan(plan, host_count=120)
        assert estimate.makespan_seconds == float(self.DEPTH)
        assert estimate.critical_path_seconds == float(self.DEPTH)
        # The round-rescanning scheduler looked up about V^2/2
        # dependency sets here (12.5 million).
        assert CountingDeps.lookups <= 4 * self.DEPTH
