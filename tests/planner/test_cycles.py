"""Plan.depth / Plan.topological_order must fail loudly (typed
CycleError), never hang or blow the recursion limit."""

import pytest

from repro.core.derivation import Derivation
from repro.core.naming import VDPRef
from repro.core.transformation import SimpleTransformation
from repro.errors import CycleError, CyclicDerivationError, PlanningError
from repro.planner.dag import Plan, PlanStep


def _step(name: str) -> PlanStep:
    tr = SimpleTransformation(
        name="noop", formals=[], executable="/bin/true"
    )
    dv = Derivation(
        name=name,
        transformation=VDPRef("noop", kind="transformation"),
        actuals={},
    )
    return PlanStep(name=name, derivation=dv, transformation=tr)


def _plan(dependencies: dict[str, set[str]]) -> Plan:
    return Plan(
        targets=("t",),
        steps={name: _step(name) for name in dependencies},
        dependencies=dependencies,
    )


class TestErrorHierarchy:
    def test_cycle_error_is_planning_error(self):
        assert issubclass(CycleError, PlanningError)

    def test_cyclic_derivation_error_is_cycle_error(self):
        assert issubclass(CyclicDerivationError, CycleError)


class TestTopologicalOrder:
    def test_two_cycle_raises_naming_stuck_steps(self):
        plan = _plan({"a": {"b"}, "b": {"a"}})
        with pytest.raises(CyclicDerivationError, match="'a'.*'b'"):
            plan.topological_order()

    def test_cycle_catchable_as_cycle_error(self):
        plan = _plan({"a": {"a"}})
        with pytest.raises(CycleError):
            plan.topological_order()

    def test_acyclic_untouched(self):
        plan = _plan({"a": set(), "b": {"a"}, "c": {"a", "b"}})
        assert plan.topological_order() == ["a", "b", "c"]


class TestDepth:
    def test_self_loop_raises(self):
        plan = _plan({"a": {"a"}})
        with pytest.raises(CycleError, match="cycle through step"):
            plan.depth()

    def test_long_cycle_raises(self):
        plan = _plan({"a": {"c"}, "b": {"a"}, "c": {"b"}})
        with pytest.raises(CycleError):
            plan.depth()

    def test_cycle_behind_prefix_raises(self):
        # The cycle is only reachable past an acyclic prefix.
        plan = _plan({"pre": set(), "a": {"pre", "b"}, "b": {"a"}})
        with pytest.raises(CycleError):
            plan.depth()

    def test_diamond_depth(self):
        plan = _plan(
            {"a": set(), "b": {"a"}, "c": {"a"}, "d": {"b", "c"}}
        )
        assert plan.depth() == 3

    def test_deep_chain_does_not_recurse(self):
        # Far past the default recursion limit; must stay iterative.
        n = 5000
        deps = {"s0": set()}
        deps.update({f"s{i}": {f"s{i - 1}"} for i in range(1, n)})
        assert _plan(deps).depth() == n

    def test_ignores_dependencies_outside_plan(self):
        # A reused/pruned step cannot linger in a dependency set: the
        # constructor refuses the edge, and without it the depth is
        # the plan's own.
        with pytest.raises(PlanningError, match="pruned or unknown"):
            _plan({"a": {"ghost"}, "b": {"a"}})
        plan = _plan({"a": set(), "b": {"a"}})
        assert plan.depth() == 2
