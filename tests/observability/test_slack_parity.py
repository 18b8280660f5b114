"""CPM slack, the critical path and Kahn levels over a plan's view.

``compute_slack``, ``critical_path`` and ``topological_levels`` take a
name -> predecessors mapping.  On random DAGs every answer over a
plan's ``dependencies`` view must equal the one a plain name mapping
gives, also when some steps never ran (missing from the timings).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.topology import topological_levels
from repro.observability.analysis import compute_slack, critical_path
from tests.core.test_topology import dags, make_plan

seconds = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


class Record:
    """What the three analyses read of a run record."""

    clock = "sim"

    def __init__(self, timings, deps):
        self._timings = timings
        self._deps = deps

    def step_timings(self):
        return self._timings

    def dependencies(self):
        return self._deps

    def makespan(self):
        return None


@settings(max_examples=150, deadline=None)
@given(dags(ghosts=False), st.data())
def test_a_plan_view_answers_as_a_name_map(deps, data):
    plan = make_plan(deps)
    plain = {name: set(preds) for name, preds in deps.items()}
    # Every step ran, or some did not.
    everyone = data.draw(st.booleans(), label="every step ran")
    timings = {}
    for name in sorted(deps):
        if everyone or data.draw(st.booleans(), label=f"{name} ran"):
            start = data.draw(seconds)
            timings[name] = {
                "step": name,
                "transformation": "noop",
                "start": start,
                "end": start + data.draw(seconds),
            }
    via_plan = Record(timings, plan.dependencies)
    via_names = Record(timings, plain)
    assert compute_slack(via_plan) == compute_slack(via_names)
    assert (
        critical_path(via_plan).to_dict() == critical_path(via_names).to_dict()
    )
    assert topological_levels(plan.dependencies) == topological_levels(plain)

