"""Grid execution of plans with catalog provenance write-back.

Bridges the planner/scheduler (which speak grid vocabulary: jobs,
sites, transfers) and the virtual data schema (invocations, replicas):
every successfully completed plan step is written back to the catalog
as an :class:`~repro.core.invocation.Invocation` executed at the chosen
site, and every output dataset gains a :class:`~repro.core.replica.Replica`
at that site.  "The identity of the physical resources used for a
particular derivation may be relevant to subsequent provenance
tracking" (§2) — that identity is exactly what gets recorded here.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.catalog.base import VirtualDataCatalog
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.errors import WorkflowError
from repro.estimator.cost import Estimator
from repro.executor.local import commit_invocation
from repro.grid.gram import GridExecutionService, JobRecord
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.dag import Plan, Planner, PlanStep
from repro.planner.request import MaterializationRequest
from repro.planner.strategies import SiteChoice, SiteSelector
from repro.resilience.policies import RecoveryConfig
from repro.resilience.rescue import (
    RescueFile,
    RescueRestore,
    apply_rescue,
    expected_digest,
    rescue_from_result,
)

if TYPE_CHECKING:
    from repro.planner.scheduler import WorkflowResult

#: ``materialize(rescue=...)`` accepts a loaded file or a path to one.
RescueInput = Union[RescueFile, str, Path]


class GridExecutor:
    """Plans and runs materialization requests on the simulated grid."""

    def __init__(
        self,
        catalog: VirtualDataCatalog,
        grid: GridExecutionService,
        selector: SiteSelector,
        estimator: Optional[Estimator] = None,
        max_retries: int = 2,
        record_provenance: bool = True,
        instrumentation: Optional[Instrumentation] = None,
        recovery: Optional[RecoveryConfig] = None,
    ):
        self.catalog = catalog
        self.grid = grid
        self.selector = selector
        self.estimator = estimator or Estimator(catalog)
        self.max_retries = max_retries
        self.record_provenance = record_provenance
        self.obs = instrumentation or NULL
        self.recovery = recovery
        #: What the last ``materialize(rescue=...)`` restored/quarantined.
        self.last_restore: Optional[RescueRestore] = None
        if self.obs.enabled and not self.catalog.obs.enabled:
            # Adopt the catalog into this executor's observability
            # scope unless it already has its own.
            self.catalog.obs = self.obs

    # -- planning ------------------------------------------------------------

    def make_planner(self, reuse_transfer_bandwidth: float = 10e6) -> Planner:
        """A planner wired to this grid's replica state and estimator.

        Under the ``cost`` reuse policy a dataset is reused when
        fetching its cheapest replica is faster than the estimated cpu
        of recomputing its producing subtree — the §1 rerun-vs-retrieve
        decision.
        """

        def reuse_decider(lfn: str, recompute_cpu: float) -> bool:
            size = self.grid.replicas.size_of(lfn)
            transfer_seconds = size / reuse_transfer_bandwidth
            return transfer_seconds <= recompute_cpu

        return Planner(
            self.catalog,
            instrumentation=self.obs,
            has_replica=self.grid.replicas.has,
            cpu_estimate=self.estimator.estimate_derivation,
            size_estimate=self.estimator.estimate_output_bytes,
            reuse_decider=reuse_decider,
        )

    def plan(self, request: MaterializationRequest) -> Plan:
        with self.obs.span("executor.plan"):
            return self.make_planner().plan(request)

    # -- execution --------------------------------------------------------------

    def run(
        self,
        plan: Plan,
        request: Optional[MaterializationRequest] = None,
        completed: Optional[set[str]] = None,
        until: Optional[float] = None,
    ) -> WorkflowResult:
        """Execute a plan; provenance lands in the catalog."""
        # Imported here: the scheduler runs on this package's driver.
        from repro.planner.scheduler import WorkflowScheduler

        pattern = request.pattern if request else "ship-data"
        max_hosts = request.max_hosts if request else None
        listener = self._write_back if self.record_provenance else None
        scheduler = WorkflowScheduler(
            self.grid,
            self.selector,
            pattern=pattern,
            max_retries=self.max_retries,
            max_hosts=max_hosts,
            step_listener=listener,
            instrumentation=self.obs,
            recovery=self.recovery,
        )
        with self.obs.span("executor.run", steps=len(plan.steps)):
            return scheduler.run(plan, completed=completed, until=until)

    def materialize(
        self,
        request: MaterializationRequest,
        rescue: Optional[RescueInput] = None,
        until: Optional[float] = None,
    ) -> WorkflowResult:
        """Plan and run a request end to end.

        ``rescue`` resumes a previous (killed or failed) run of the
        same request: the rescue file's completed steps are verified
        against the grid — corrupt replicas quarantined, missing ones
        restored — and only unfinished steps re-execute.  ``until``
        kills the run at that simulation time; the partial result is
        returned (``interrupted=True``) instead of raising, so a rescue
        file can be written from it.

        A run that finishes with failures raises
        :class:`~repro.errors.WorkflowError` carrying the full result
        for per-step failure reporting.
        """
        with self.obs.span(
            "executor.materialize", targets=",".join(request.targets)
        ):
            plan = self.plan(request)
            if self.obs.enabled:
                # Virtual-data reuse: requested work satisfied without
                # recomputation (the §1 rerun-vs-retrieve win).
                self.obs.count(
                    "executor.reuse.hits",
                    len(plan.reused),
                    help="datasets served from existing replicas",
                )
            completed: Optional[set[str]] = None
            self.last_restore = None
            if rescue is not None:
                if isinstance(rescue, (str, Path)):
                    rescue = RescueFile.load(rescue)
                restore = apply_rescue(
                    plan,
                    rescue,
                    self.grid,
                    catalog=self.catalog,
                    instrumentation=self.obs,
                )
                self.last_restore = restore
                completed = restore.completed
            result = self.run(plan, request, completed=completed, until=until)
            if not result.succeeded and not result.interrupted:
                raise WorkflowError(
                    f"materialization failed; steps "
                    f"{sorted(result.failed_steps)}",
                    result=result,
                )
            return result

    def rescue_file(
        self, result: WorkflowResult, base: Optional[RescueFile] = None
    ) -> RescueFile:
        """Distil ``result`` into a rescue file for a later resume.

        ``base`` is the rescue file the run itself was resumed from;
        its records for steps that stayed pre-completed are carried
        over so chained rescues never lose finished work.
        """
        rescue = rescue_from_result(result)
        if base is not None:
            for name in result.pre_completed:
                if name in base.completed:
                    rescue.completed[name] = base.completed[name]
        return rescue

    # -- provenance write-back -----------------------------------------------------

    def _write_back(
        self, step: PlanStep, choice: SiteChoice, record: JobRecord
    ) -> None:
        invocation = Invocation(
            derivation_name=step.derivation.name,
            status="success",
            start_time=record.start_time,
            context=ExecutionContext.make(
                site=choice.site,
                host=record.host,
                environment=dict(step.derivation.environment),
            ),
            usage=ResourceUsage(
                cpu_seconds=record.spec.cpu_seconds,
                wall_seconds=record.end_time - record.start_time,
                bytes_read=record.bytes_staged,
                bytes_written=sum(record.spec.outputs.values()),
            ),
        )
        stamp_recipe(invocation, step.derivation, step.transformation)
        outputs = [
            (
                self._formal_for(step, output),
                Replica(
                    dataset_name=output,
                    location=choice.site,
                    size=size,
                    # The simulated grid moves no real bytes; stamp the
                    # deterministic pseudo-digest so replica equivalence
                    # and fsck can still cross-check records.
                    digest=expected_digest(output, size),
                ),
            )
            for output, size in record.spec.outputs.items()
        ]
        # Atomic write-back: any synthetic derivation commits in the
        # same unit as the step's replicas and invocation, so a crash
        # mid-write-back never leaves replicas without provenance.
        with self.catalog.transaction(label=f"write-back:{step.name}"):
            if not self.catalog.has_derivation(step.derivation.name):
                # Synthetic sub-derivations from compound expansion become
                # first-class provenance records of their own.
                self.catalog.add_derivation(step.derivation, validate=False)
            commit_invocation(self.catalog, invocation, outputs, self.obs)

    @staticmethod
    def _formal_for(step: PlanStep, dataset: str) -> Optional[str]:
        for formal, arg in step.derivation.dataset_args():
            if arg.dataset == dataset and arg.is_output:
                return formal
        return None
