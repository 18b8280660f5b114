"""Tests for the incremental ready-set tracker and frontier consistency.

The :class:`~repro.planner.dag.Frontier` replaces a per-tick rescan of
every step's dependencies (O(V·E) over a run) with indegree
decrements; these tests pin its equivalence to :func:`ready_steps`, that
rescan kept here as the reference, and the consistency check that
catches plans whose dependency edges point at pruned steps.
"""

import random

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.errors import PlanningError
from repro.planner.dag import Frontier, Plan, Planner
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
        pruned = Plan(targets=plan.targets)
        pruned.steps = {name: plan.steps[name] for name in steps}
        pruned.dependencies = dependencies
        return pruned

    def test_dangling_dependency_raises(self):
        # s1 kept, but its predecessor g1 was pruned without fixing the
        # edge: a rescan used to never return s1 (silent hang).
        plan = self._plan_with(
            ["s1"], {"s1": {"g1"}}
        )
        with pytest.raises(PlanningError, match="pruned or unknown"):
            plan.check_frontier_consistency()
        with pytest.raises(PlanningError, match="pruned or unknown"):
            Frontier(plan)

    def test_step_missing_from_dependency_map_raises(self):
        plan = self._plan_with(["g1", "g2"], {"g1": set()})
        with pytest.raises(PlanningError, match="never dispatch"):
            plan.check_frontier_consistency()
        with pytest.raises(PlanningError, match="never dispatch"):
            Frontier(plan)

    def test_dependency_entry_for_unknown_step_raises(self):
        plan = self._plan_with(["g1"], {"g1": set(), "ghost": set()})
        with pytest.raises(PlanningError, match="unknown step"):
            plan.check_frontier_consistency()
        with pytest.raises(PlanningError, match="unknown step"):
            Frontier(plan)

    def test_consistent_plan_passes(self):
        plan = diamond_plan()
        plan.check_frontier_consistency()  # no raise
        assert Frontier(plan).ready() == ["g1", "g2"]
