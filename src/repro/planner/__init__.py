"""Request planning: DAG expansion, site selection, scheduling (§5.2)."""

from repro.planner.dag import Plan, PlanStep, Planner
from repro.planner.request import (
    MaterializationRequest,
    REUSE_POLICIES,
    SHIPPING_PATTERNS,
)
from repro.planner.scheduler import (
    StepOutcome,
    WorkflowResult,
    WorkflowScheduler,
)
from repro.planner.strategies import (
    ProcedureRegistry,
    SiteChoice,
    SiteSelector,
)

__all__ = [
    "MaterializationRequest",
    "Plan",
    "PlanStep",
    "Planner",
    "ProcedureRegistry",
    "REUSE_POLICIES",
    "SHIPPING_PATTERNS",
    "SiteChoice",
    "SiteSelector",
    "StepOutcome",
    "WorkflowResult",
    "WorkflowScheduler",
]
