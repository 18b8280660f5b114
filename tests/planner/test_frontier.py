"""Tests for the incremental ready-set tracker and frontier consistency.

The :class:`~repro.planner.dag.Frontier` replaces a per-tick rescan of
every step's dependencies (O(V·E) over a run) with indegree
decrements, and owns the dispatch queue and the skip walk the loops
used to keep themselves.  These tests pin its equivalence to the
routines it replaced, kept here as references — :func:`ready_steps`,
:func:`dispatch_filter`, :func:`skip_downstream` and
:func:`downstream_of` — and the consistency check that catches plans
whose dependency edges point at pruned steps, which the plan's
name-keyed constructor now runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.memory import MemoryCatalog
from repro.core.derivation import Derivation
from repro.core.naming import VDPRef
from repro.core.topology import reachable
from repro.core.transformation import SimpleTransformation
from repro.errors import PlanningError
from repro.planner.dag import Frontier, Plan, Planner, PlanStep
from repro.planner.request import MaterializationRequest
from tests.conftest import DIAMOND_VDL


def ready_steps(plan, done):
    """Steps whose prerequisites are all in ``done`` and that are not
    themselves done, in name order: the rescan the frontier replaced."""
    return sorted(
        name
        for name, deps in plan.dependencies.items()
        if name not in done and deps <= done
    )


def dispatch_filter(frontier, in_flight, pending_retry, failed, skipped):
    """What the grid scheduler offered on every dispatch pass before the
    frontier kept a queue: the ready set, in name order, minus what was
    running, waiting to be resubmitted, failed or skipped."""
    return [
        name
        for name in frontier.ready()
        if name not in in_flight
        and name not in pending_retry
        and name not in failed
        and name not in skipped
    ]


def dependents_of(plan):
    """Step name -> the steps waiting for it, from the dependency map."""
    dependents = {name: [] for name in plan.dependencies}
    for name, deps in plan.dependencies.items():
        for dep in deps:
            dependents[dep].append(name)
    return dependents


def skip_downstream(plan, root, done, failed, skipped):
    """The grid scheduler's skip walk before ``Frontier.fail``: every
    transitive dependent of ``root`` reached without passing a done,
    failed or skipped step, in name order."""
    dependents = dependents_of(plan)

    def open_dependents(step):
        return [
            name
            for name in dependents.get(step, ())
            if name not in done and name not in failed and name not in skipped
        ]

    return sorted(reachable(open_dependents, open_dependents(root)))


def downstream_of(plan, name):
    """Transitive dependents of ``name`` (itself only on a cycle): what
    the local pool skipped behind a failure before ``Frontier.fail``."""
    dependents = dependents_of(plan)
    return reachable(
        lambda step: dependents.get(step, ()), dependents.get(name, ())
    )


def diamond_plan():
    catalog = MemoryCatalog().define(DIAMOND_VDL)
    planner = Planner(catalog)
    return planner.plan(
        MaterializationRequest(targets=("final",), reuse="never")
    )


class TestFrontierParity:
    def test_initial_ready_matches_rescan(self):
        plan = diamond_plan()
        assert Frontier(plan).ready() == ready_steps(plan, set())

    def test_incremental_matches_rescan_at_every_prefix(self):
        """Completing steps in any legal order, the frontier's ready set
        always equals what a full rescan would report."""
        plan = diamond_plan()
        rng = random.Random(7)
        for _ in range(20):
            frontier = Frontier(plan)
            done = set()
            while not frontier.exhausted:
                ready = frontier.ready()
                assert ready == ready_steps(plan, done)
                pick = rng.choice(ready)
                frontier.complete(pick)
                done.add(pick)
            assert ready_steps(plan, done) == []

    def test_complete_returns_newly_released(self):
        plan = diamond_plan()
        frontier = Frontier(plan)
        assert frontier.ready() == ["g1", "g2"]
        assert frontier.complete("g1") == ["s1"]
        assert frontier.complete("g2") == ["s2"]
        assert frontier.complete("s1") == []
        assert frontier.complete("s2") == ["a1"]

    def test_pre_completed_steps(self):
        plan = diamond_plan()
        frontier = Frontier(plan, done={"g1", "g2", "s1"})
        assert frontier.ready() == ["s2"]
        assert frontier.remaining() == 2

    def test_complete_is_idempotent(self):
        plan = diamond_plan()
        frontier = Frontier(plan)
        assert frontier.complete("g1") == ["s1"]
        # A second completion is a no-op: no double release, no
        # double-count (rescue files may list steps redundantly).
        assert frontier.complete("g1") == []
        assert frontier.remaining() == len(plan.steps) - 1

    def test_unknown_step_rejected(self):
        plan = diamond_plan()
        frontier = Frontier(plan)
        with pytest.raises(PlanningError, match="unknown step"):
            frontier.complete("ghost")


class TestFrontierConsistency:
    """Regression: a ready-set rescan used to silently return steps
    whose predecessors had been pruned (e.g. as reused subgraphs) without
    the dependency edges being fixed up — the dependent steps then either
    dispatched early or hung forever, depending on the caller."""

    def _plan_with(self, steps, dependencies):
        plan = diamond_plan()
        return Plan(
            targets=plan.targets,
            steps={name: plan.steps[name] for name in steps},
            dependencies=dependencies,
        )

    def test_dangling_dependency_raises(self):
        # s1 kept, but its predecessor g1 was pruned without fixing the
        # edge: a rescan used to never return s1 (silent hang).
        with pytest.raises(PlanningError, match="pruned or unknown"):
            self._plan_with(["s1"], {"s1": {"g1"}})

    def test_step_missing_from_dependency_map_raises(self):
        with pytest.raises(PlanningError, match="never dispatch"):
            self._plan_with(["g1", "g2"], {"g1": set()})

    def test_dependency_entry_for_unknown_step_raises(self):
        with pytest.raises(PlanningError, match="unknown step"):
            self._plan_with(["g1"], {"g1": set(), "ghost": set()})

    def test_consistent_plan_passes(self):
        plan = diamond_plan()
        rebuilt = self._plan_with(plan.steps, plan.dependencies)  # no raise
        assert rebuilt.dependencies == plan.dependencies
        assert Frontier(rebuilt).ready() == ["g1", "g2"]


NOOP = SimpleTransformation(name="noop", formals=[], executable="/bin/true")


def step(name):
    """A step with no datasets: only the dependency map links steps."""
    derivation = Derivation(
        name=name,
        transformation=VDPRef("noop", kind="transformation"),
        actuals={},
    )
    return PlanStep(name=name, derivation=derivation, transformation=NOOP)


@st.composite
def random_plans(draw):
    """A random DAG whose name order is unrelated to its edges, plus a
    random set of pre-completed steps (as a rescue file would give)."""
    size = draw(st.integers(1, 12))
    names = draw(st.permutations([f"s{i:02d}" for i in range(size)]))
    dependencies = {}
    for i, name in enumerate(names):
        preds = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        dependencies[name] = {names[j] for j in preds}
    plan = Plan(
        targets=(),
        steps={name: step(name) for name in names},
        dependencies=dependencies,
    )
    done = draw(st.sets(st.sampled_from(names), max_size=size // 3))
    return plan, done


class TestFrontierOwnsDispatch:
    """Random sequences of dispatch passes (some steps held back),
    completions and failures, against the routines the frontier
    replaced."""

    @settings(max_examples=300, deadline=None)
    @given(random_plans(), st.booleans(), st.data())
    def test_queue_and_skip_walk_match_the_old_routines(
        self, case, fail_fast, data
    ):
        plan, done = case
        frontier = Frontier(plan, done=done)
        frontier.fail_fast = fail_fast
        in_flight, held, failed, skipped = set(), set(), set(), set()
        for _ in range(3 * len(plan.steps)):
            action = data.draw(st.sampled_from(["take", "complete", "fail"]))
            if action == "take":
                expected = dispatch_filter(
                    frontier, in_flight, held, failed, skipped
                )
                if fail_fast and failed:
                    expected = []  # the gate
                taken = list(iter(frontier.take, None))
                assert taken == expected
                for name in taken:
                    if data.draw(st.booleans()):
                        frontier.hold(name)
                        held.add(name)
                    else:
                        in_flight.add(name)
                continue
            if not in_flight:
                continue
            name = data.draw(st.sampled_from(sorted(in_flight)))
            in_flight.discard(name)
            held.clear()  # held steps are offered again after a settle
            if action == "complete":
                frontier.complete(name)
                continue
            failed.add(name)
            expected = skip_downstream(
                plan, name, frontier.completed, failed, skipped
            )
            assert frontier.fail(name) == expected
            skipped.update(expected)
        assert frontier.failed == failed
        assert frontier.skipped == skipped
        if not done:
            # Nothing behind a failure can be done or failed when no
            # step was pre-completed: the walk is the full downstream.
            assert skipped == set().union(
                *(downstream_of(plan, name) for name in failed)
            )

    def test_fail_fast_gate_and_exhaustion(self):
        plan = diamond_plan()
        frontier = Frontier(plan)
        frontier.fail_fast = True
        assert frontier.take() == "g1"
        assert frontier.fail("g1") == ["a1", "s1"]
        assert frontier.halted and frontier.take() is None
        assert not frontier.exhausted
        frontier.complete("g2")
        assert frontier.remaining() == 1  # s2 still open
        frontier.complete("s2")
        assert frontier.exhausted
