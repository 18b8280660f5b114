"""Whole-workflow cost estimation (§5.3).

"Given a set of alternative potential plans being evaluated by the
request planning function, the estimator must determine the cost of
executing the data derivation workflow graph of each plan (which
consists of both computation and data transfer nodes). ... interactive
users may query the estimator directly to assess whether or not a
particular desired virtual data product is feasible — whether it can be
computed in the time that the user is willing to wait for it."

:func:`estimate_plan` performs analytic list scheduling: steps are
dispatched round by round (the plan's Kahn levels) onto ``host_count``
abstract hosts; each step pays its transfer seconds then its cpu
seconds.  The result is an upper-bound-ish makespan that tracks the
simulator closely (the EST benchmark quantifies the error).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import EstimationError
from repro.planner.dag import Plan

#: Default analytic transfer rate when no topology is supplied.
DEFAULT_ANALYTIC_BANDWIDTH = 10e6


@dataclass
class WorkflowEstimate:
    """Predicted cost of executing one plan."""

    makespan_seconds: float
    total_cpu_seconds: float
    total_transfer_seconds: float
    critical_path_seconds: float
    host_count: int
    step_count: int

    def meets_deadline(self, deadline_seconds: float) -> bool:
        """The §5.3 interactive feasibility query."""
        return self.makespan_seconds <= deadline_seconds


def estimate_plan(
    plan: Plan,
    host_count: int = 1,
    input_bytes: dict[str, int] | None = None,
    bandwidth: float = DEFAULT_ANALYTIC_BANDWIDTH,
    include_intermediates: bool = False,
) -> WorkflowEstimate:
    """Analytically estimate ``plan``'s execution cost.

    ``input_bytes`` maps dataset names to sizes for transfer costing
    (the externally staged-in sources).  With
    ``include_intermediates=True``, intra-plan products are also
    charged at ``bandwidth`` when consumed — a pessimistic model for
    schedules that move every intermediate between sites.  Datasets in
    neither set are assumed local (zero transfer).
    """
    if host_count <= 0:
        raise EstimationError("host_count must be positive")
    if not plan.steps:
        return WorkflowEstimate(
            makespan_seconds=0.0,
            total_cpu_seconds=0.0,
            total_transfer_seconds=0.0,
            critical_path_seconds=0.0,
            host_count=host_count,
            step_count=0,
        )
    sizes: dict[str, int] = dict(input_bytes or {})
    if include_intermediates:
        for step in plan.steps.values():
            sizes.update(step.output_sizes)

    def step_seconds(name: str) -> tuple[float, float]:
        step = plan.steps[name]
        transfer = sum(
            sizes.get(lfn, 0) / bandwidth for lfn in step.inputs
        )
        return transfer, step.cpu_seconds

    deps = plan.dependencies
    # A Kahn level is exactly one list-scheduling round: the steps whose
    # predecessors all finished in earlier rounds.
    finish: dict[str, float] = {}  # infinite hosts: the critical path
    done_at: dict[str, float] = {}  # host_count hosts
    hosts = [0.0] * host_count
    heapq.heapify(hosts)
    total_transfer = 0.0
    for level in plan.levels():
        # Dispatch the round in order of data-ready time, then name.
        ready = sorted(
            (max((done_at[d] for d in deps[name]), default=0.0), name)
            for name in level
        )
        for data_ready, name in ready:
            transfer, cpu = step_seconds(name)
            finish[name] = (
                max((finish[d] for d in deps[name]), default=0.0)
                + transfer
                + cpu
            )
            host_free = heapq.heappop(hosts)
            start = max(data_ready, host_free)
            end = start + transfer + cpu
            heapq.heappush(hosts, end)
            done_at[name] = end
            total_transfer += transfer
    return WorkflowEstimate(
        makespan_seconds=max(done_at.values()),
        total_cpu_seconds=plan.total_cpu_seconds(),
        total_transfer_seconds=total_transfer,
        critical_path_seconds=max(finish.values()),
        host_count=host_count,
        step_count=len(plan.steps),
    )


def sweep_hosts(
    plan: Plan,
    host_counts: list[int],
    input_bytes: dict[str, int] | None = None,
    bandwidth: float = DEFAULT_ANALYTIC_BANDWIDTH,
) -> dict[int, WorkflowEstimate]:
    """Estimate the plan at several concurrency levels.

    The scaling curve this produces is the planner's guide for the
    "how many hosts should this workflow get" provisioning decision.
    """
    return {
        n: estimate_plan(plan, n, input_bytes=input_bytes, bandwidth=bandwidth)
        for n in host_counts
    }
