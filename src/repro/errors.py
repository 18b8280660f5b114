"""Exception hierarchy for the virtual data grid.

Every error raised by :mod:`repro` derives from :class:`VirtualDataError`
so callers can catch the whole family with one handler while still being
able to discriminate the precise failure.
"""

from __future__ import annotations


class VirtualDataError(Exception):
    """Base class for all errors raised by the virtual data grid."""


class TypeSystemError(VirtualDataError):
    """Problems with the dataset-type model (unknown types, bad hierarchies)."""


class UnknownTypeError(TypeSystemError):
    """A dataset type name was referenced but never registered."""


class TypeConformanceError(TypeSystemError):
    """An actual argument's type does not conform to the formal type list."""


class SchemaError(VirtualDataError):
    """Invalid schema object construction (missing attributes, bad links)."""


class SignatureMismatchError(SchemaError):
    """A derivation's actual arguments do not match its transformation."""


class VDLError(VirtualDataError):
    """Base class for Virtual Data Language front-end errors."""


class VDLSyntaxError(VDLError):
    """Lexical or grammatical error in VDL source text.

    Carries ``line`` and ``column`` (1-based) of the offending token,
    plus the location-free ``bare_message`` so front-ends can render
    ``file.vdl:12: message`` themselves.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.bare_message = message
        self.line = line
        self.column = column


class VDLSemanticError(VDLError):
    """Well-formed VDL that violates semantic rules (types, arity, scope).

    Like :class:`VDLSyntaxError`, carries ``line``/``column`` (0 when
    unknown) and the location-free ``bare_message``.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line})" if line else ""
        super().__init__(f"{message}{location}")
        self.bare_message = message
        self.line = line
        self.column = column


class CatalogError(VirtualDataError):
    """Base class for virtual data catalog failures."""


class DuplicateEntryError(CatalogError):
    """An object with the same name already exists in the catalog."""


class NotFoundError(CatalogError):
    """The requested object does not exist in the catalog."""


class ReferenceError_(CatalogError):
    """An inter-catalog (vdp://) reference could not be resolved."""


class FederationError(CatalogError):
    """A federated index operation failed."""


class GridError(VirtualDataError):
    """Base class for simulated-grid failures."""


class SubmissionError(GridError):
    """A job could not be submitted to a compute element."""


class TransferError(GridError):
    """A data transfer failed (no route, missing replica, ...)."""


class PlanningError(VirtualDataError):
    """The planner could not construct a feasible plan."""


class CycleError(PlanningError):
    """A dependency graph that must be acyclic contains a cycle.

    Raised by :func:`repro.core.topology.topological_levels` (so by
    every plan and derivation-graph order) instead of hanging, matching
    what the static cycle rule (``VDG301`` in :mod:`repro.analysis`)
    reports before planning.
    """


class CyclicDerivationError(CycleError):
    """The derivation graph required for a request contains a cycle."""


class UnderivableError(PlanningError):
    """A requested dataset has neither a replica nor a producing derivation."""


class ExecutionError(VirtualDataError):
    """A transformation execution failed."""


class MaterializationError(ExecutionError):
    """A local materialization finished with failed (or skipped) steps.

    Raised by :meth:`repro.executor.local.LocalExecutor.materialize`
    under the run-what-you-can failure policy once every runnable step
    has been attempted.  Carries the invocations that did complete plus
    the names of the failed steps and of the steps skipped because an
    upstream step failed.
    """

    def __init__(
        self,
        message: str,
        invocations=None,
        failed=None,
        skipped=None,
    ):
        super().__init__(message)
        self.invocations = list(invocations or [])
        self.failed = sorted(failed or [])
        self.skipped = sorted(skipped or [])


class WorkflowError(ExecutionError):
    """A workflow run finished with failed (or skipped) steps.

    Carries the full :class:`~repro.planner.scheduler.WorkflowResult`
    so callers can render a per-step failure summary — which site ran
    each failed step, how many attempts were made, the final
    ``JobRecord.error`` — plus the steps skipped as
    ``upstream-failed`` instead of just the failed step names.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result

    def step_failures(self) -> list[dict]:
        """Per-step failure details, sorted by step name."""
        if self.result is None:
            return []
        rows = []
        for name in sorted(self.result.failed_steps):
            outcome = self.result.outcomes.get(name)
            rows.append(
                {
                    "step": name,
                    "status": "failed",
                    "site": outcome.site if outcome else "?",
                    "attempts": outcome.attempts if outcome else 0,
                    "error": (
                        outcome.record.error or outcome.record.status
                    )
                    if outcome
                    else "unknown",
                }
            )
        for name, reason in sorted(self.result.skipped_steps.items()):
            rows.append(
                {
                    "step": name,
                    "status": "skipped",
                    "site": "-",
                    "attempts": 0,
                    "error": reason,
                }
            )
        return rows

    def render_summary(self) -> str:
        """A human-readable multi-line failure report."""
        rows = self.step_failures()
        if not rows:
            return str(self)
        lines = [str(self)]
        for row in rows:
            if row["status"] == "failed":
                lines.append(
                    f"  {row['step']}: failed at site {row['site']} "
                    f"after {row['attempts']} attempt(s): {row['error']}"
                )
            else:
                lines.append(f"  {row['step']}: skipped ({row['error']})")
        return "\n".join(lines)


class FaultPlanError(VirtualDataError):
    """A fault-injection plan is malformed or unreadable."""


class RescueError(ExecutionError):
    """A rescue file is malformed, stale, or mismatched with its plan."""


class EstimationError(VirtualDataError):
    """The estimator lacks the information needed to produce an estimate."""


class DurabilityError(VirtualDataError):
    """Base class for crash-consistency machinery failures."""


class JournalError(DurabilityError):
    """The intent journal is unusable (corrupt beyond the torn-tail model)."""


class FsckError(DurabilityError):
    """The workspace failed its consistency check and was not repaired."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        #: The :class:`~repro.durability.recovery.FsckReport`, when available.
        self.report = report
