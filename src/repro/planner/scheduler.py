"""DAGMan-style workflow execution management (§5.4).

"Derivation is conducted by workflow execution management systems that
dispatch computation or data transfer requests to specific grid sites,
and monitor their completion, dispatching nodes of the workflow graph
when the node's predecessor dependencies have completed.  An example of
such a scheduler is the Condor DAGMan facility."

:class:`WorkflowScheduler` runs a :class:`~repro.planner.dag.Plan` on
the simulated grid: the shared plan-run driver
(:mod:`repro.executor.driver`) dispatches ready steps, retries failures
up to a bound and applies the failure policy and the width cap, over a
:class:`GramBackend` that submits one GRAM job per attempt; the run is
summarized in a :class:`WorkflowResult`.

Recovery behaviour is pluggable through
:class:`~repro.resilience.policies.RecoveryConfig`: retry backoff with
deterministic jitter and the ``fail-fast`` vs ``run-what-you-can``
failure policy (applied by the driver); per-site circuit breakers with
half-open probing, failover (retries re-invoke the site selector with
already-failed sites excluded) and per-attempt straggler timeouts
(applied by the backend).  The default configuration reproduces the
historical behaviour exactly: immediate same-site retries and
fail-fast.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ExecutionError, PlanningError
from repro.executor.driver import Attempt, Driver
from repro.grid.gram import GridExecutionService, JobRecord, JobSpec
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.dag import Plan, PlanStep
from repro.planner.strategies import SiteChoice, SiteSelector
from repro.resilience.policies import FAIL_FAST, RecoveryConfig


@dataclass
class StepOutcome:
    """What happened to one plan step."""

    step: str
    site: str
    attempts: int
    record: JobRecord


@dataclass
class WorkflowResult:
    """Summary of one workflow run on the grid."""

    plan: Plan
    outcomes: dict[str, StepOutcome] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0
    failed_steps: set[str] = field(default_factory=set)
    #: Step -> reason (``"upstream-failed:<step>"``): steps that could
    #: never run because a step they depend on failed permanently.
    skipped_steps: dict[str, str] = field(default_factory=dict)
    #: Steps satisfied by a rescue file before dispatch (resume); they
    #: have no outcome because no job ran this time.
    pre_completed: set[str] = field(default_factory=set)
    #: True when an ``until=`` cut-off killed the run mid-flight.
    interrupted: bool = False
    #: Maximum number of simultaneously in-flight steps observed —
    #: the "hosts in a single workflow" number of §6.
    peak_in_flight: int = 0

    @property
    def succeeded(self) -> bool:
        return (
            not self.failed_steps
            and not self.skipped_steps
            and not self.interrupted
            and len(self.outcomes) + len(self.pre_completed)
            == len(self.plan.steps)
        )

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at

    def total_cpu_seconds(self) -> float:
        return sum(
            o.record.spec.cpu_seconds
            for o in self.outcomes.values()
            if o.record.succeeded
        )

    def total_queue_seconds(self) -> float:
        return sum(o.record.queue_seconds for o in self.outcomes.values())

    def total_stage_in_seconds(self) -> float:
        return sum(o.record.stage_in_seconds for o in self.outcomes.values())

    def hosts_used(self) -> set[str]:
        return {
            o.record.host for o in self.outcomes.values() if o.record.host
        }

    def sites_used(self) -> set[str]:
        return {o.site for o in self.outcomes.values()}


#: Called after each step completes (successfully); used by the grid
#: executor to write invocation/replica records into the catalog.
StepListener = Callable[[PlanStep, SiteChoice, JobRecord], None]


class WorkflowScheduler:
    """Dependency-driven dispatcher over a grid execution service.

    ``max_retries`` bounds *resubmissions*, not attempts: a step is
    tried at most ``max_retries + 1`` times before it is recorded in
    ``failed_steps`` (so ``max_retries=0`` still runs every step once).
    """

    def __init__(
        self,
        grid: GridExecutionService,
        selector: SiteSelector,
        pattern: str = "ship-data",
        max_retries: int = 2,
        max_hosts: Optional[int] = None,
        step_listener: Optional[StepListener] = None,
        instrumentation: Optional[Instrumentation] = None,
        recovery: Optional[RecoveryConfig] = None,
    ):
        if max_retries < 0:
            raise PlanningError("max_retries must be >= 0")
        self.grid = grid
        self.selector = selector
        self.pattern = pattern
        self.max_retries = max_retries
        self.max_hosts = max_hosts
        self.step_listener = step_listener
        self.obs = instrumentation or NULL
        # The historical posture: immediate same-site retries,
        # fail-fast, no breakers, no failover.
        self.recovery = recovery or RecoveryConfig(failover=False)
        if max_retries > 0 and len(selector.sites) == 1:
            warnings.warn(
                f"max_retries={max_retries} with a single-site selector: "
                "every retry re-runs at the same site, so a permanent "
                "site fault can never be failed over",
                RuntimeWarning,
                stacklevel=2,
            )

    def run(
        self,
        plan: Plan,
        completed: Optional[set[str]] = None,
        until: Optional[float] = None,
    ) -> WorkflowResult:
        """Execute ``plan`` to completion on the simulator's clock.

        ``completed`` names steps already satisfied (rescue resume):
        they are treated as done without dispatching a job and without
        invoking the step listener.  ``until`` kills the run at that
        simulation time — the partial result comes back with
        ``interrupted=True`` and any abandoned events flushed, which is
        how crashed campaigns are modelled for rescue testing.

        Missing source datasets raise
        :class:`~repro.errors.ExecutionError` before any dispatch: the
        workflow would deadlock otherwise.
        """
        for source in sorted(plan.sources | plan.reused):
            if not self.grid.replicas.has(source):
                raise ExecutionError(
                    f"source dataset {source!r} has no replica on the grid"
                )
        started = self.grid.simulator.now
        with self.obs.span(
            "scheduler.run",
            steps=len(plan.steps),
            pattern=self.pattern,
        ) as run_span:
            backend = GramBackend(self, plan, until)
            driver = Driver(
                plan,
                backend,
                self.obs,
                max_retries=self.max_retries,
                retry_policy=self.recovery.retry_policy,
                fail_fast=self.recovery.failure_policy == FAIL_FAST,
                max_hosts=self.max_hosts,
                done=completed,
            )
            driver.run()
            result = WorkflowResult(
                plan=plan,
                outcomes={
                    name: StepOutcome(
                        step=name,
                        site=outcome.site,
                        attempts=driver.attempts[name],
                        record=outcome.value,
                    )
                    for name, outcome in driver.outcomes.items()
                },
                started_at=started,
                finished_at=(
                    driver.finished_at
                    if driver.finished_at is not None
                    else self.grid.simulator.now
                ),
                failed_steps=driver.frontier.failed,
                skipped_steps=driver.skipped,
                pre_completed=driver.pre_completed,
                interrupted=backend.interrupted,
                peak_in_flight=driver.peak_in_flight,
            )
            if (
                not result.succeeded
                and not result.failed_steps
                and not result.interrupted
            ):
                missing = sorted(set(plan.steps) - driver.frontier.completed)
                raise ExecutionError(
                    f"workflow stalled; steps never became ready: "
                    f"{missing[:5]}"
                )
            if self.obs.enabled:
                run_span.set("peak_in_flight", result.peak_in_flight)
                run_span.set("failed", len(result.failed_steps))
                run_span.set("skipped", len(result.skipped_steps))
                run_span.set("resumed", len(result.pre_completed))
            return result


class GramBackend:
    """The simulated grid as a driver backend: one GRAM job per attempt.

    It keeps what depends on the grid: site choice with failover (a
    retry avoids the sites that already failed the step) and per-site
    circuit breakers (with every breaker open a step is deferred until
    the first cooldown ends), GRAM submission, write-back verification
    with quarantine of corrupt outputs, the per-attempt step-timeout
    watchdog, and the ``until=`` cut-off.  Outcomes are settled from
    GRAM completion callbacks inside one :meth:`Simulator.run
    <repro.grid.simulator.Simulator.run>`.
    """

    namespace = "scheduler"
    clock = "sim"

    def __init__(
        self,
        scheduler: WorkflowScheduler,
        plan: Plan,
        until: Optional[float] = None,
    ):
        self.scheduler = scheduler
        self.grid = scheduler.grid
        self.sim = scheduler.grid.simulator
        self.plan = plan
        self.until = until
        self.obs = scheduler.obs
        self.recovery = scheduler.recovery
        self.breakers = scheduler.recovery.breakers
        self.all_sites = sorted(scheduler.selector.sites)
        #: True when the ``until=`` cut-off killed the run mid-flight.
        self.interrupted = False
        #: Step -> sites where an attempt of it already failed.
        self._failed_sites: dict[str, set[str]] = {}
        #: Last recorded breaker state per site, so the recorder logs
        #: transitions rather than every touch.
        self._breaker_states: dict[str, int] = {}
        #: The sites ``admit`` left open to the step ``start`` submits.
        self._candidates: Optional[list[str]] = None
        #: The driver running this backend (set by run()); weak, as
        #: the driver owns its backend.
        self._driver: Callable[[], Driver]

    def now(self) -> float:
        return self.sim.now

    def later(self, delay: float, fn: Callable[[], None]) -> None:
        self.sim.schedule(delay, fn)

    def run(self, driver: Driver) -> None:
        self._driver = weakref.ref(driver)
        driver.dispatch()
        self.sim.run(until=self.until)
        if self.until is not None and not driver.frontier.exhausted:
            # Killed mid-flight: drop abandoned events so a resume on
            # the same simulator cannot replay them.
            self.interrupted = True
            self.sim.flush()

    def admit(self, name: str) -> Optional[float]:
        now = self.sim.now
        candidates: Optional[list[str]] = None
        excluded = self._failed_sites.get(name)
        if self.recovery.failover and excluded:
            pool = [s for s in self.all_sites if s not in excluded]
            if pool:  # all sites failed: fall back to every site
                candidates = pool
        breakers = self.breakers
        if breakers is not None:
            pool = candidates if candidates is not None else self.all_sites
            avail = breakers.available(pool, now)
            if not avail and candidates is not None:
                # Every failover candidate is tripped; widen to all.
                avail = breakers.available(self.all_sites, now)
            if not avail:
                # Every breaker open: park until the first cooldown
                # expires (or poll while a half-open probe flies).
                resume_at = breakers.earliest_retry(self.all_sites, now)
                wait = resume_at - now
                if self.obs.enabled:
                    self.obs.count(
                        "scheduler.breaker.deferrals",
                        help="submissions delayed by open breakers",
                    )
                if self.obs.recorder is not None:
                    self.obs.recorder.event(
                        "breaker.deferred",
                        step=name,
                        resume_at=resume_at,
                        sim=now,
                    )
                return wait if wait > 0 else 1.0
            candidates = avail
        self._candidates = candidates
        return None

    def start(self, name: str, attempt: int) -> None:
        step = self.plan.steps[name]
        now = self.sim.now
        candidates, self._candidates = self._candidates, None
        choice = self.scheduler.selector.choose(
            step, self.scheduler.pattern, now=now, candidates=candidates
        )
        if self.breakers is not None:
            self.breakers.breaker(choice.site).admit(now)
            self._note_breaker(choice.site)
        spec = JobSpec(
            name=name,
            site=choice.site,
            cpu_seconds=step.cpu_seconds,
            inputs=step.inputs,
            outputs=dict(step.output_sizes),
            executable=step.transformation.executable,
            environment=dict(step.derivation.environment),
            # The driver enforces the workflow's width cap; per-site
            # host restriction is not additionally needed.
            max_hosts=None,
            setup_seconds=choice.procedure_seconds,
        )
        job = self.grid.submit(
            spec, lambda job: self._complete(step, attempt, choice, job)
        )
        timeout = self.recovery.step_timeout
        if timeout is not None:
            self.sim.schedule(
                timeout, lambda: self._timeout(step, attempt, choice, job)
            )

    def _complete(
        self, step: PlanStep, attempt: int, choice: SiteChoice, job: JobRecord
    ) -> None:
        """GRAM completion: verify what the job wrote, then settle."""
        if job.succeeded:
            bad = self.grid.verify_outputs(job)
            if bad:
                # Write-back validation: quarantine corrupt replicas and
                # treat the attempt as failed so it re-executes.
                for lfn in bad:
                    self.grid.quarantine(lfn, choice.site)
                job.status = "failed"
                job.fault = "corrupt"
                job.error = "output verification failed for " + ", ".join(
                    sorted(bad)
                )
        self._settle(step, attempt, choice, job)

    def _timeout(
        self, step: PlanStep, attempt: int, choice: SiteChoice, job: JobRecord
    ) -> None:
        """The step timeout fired: kill the attempt if it still runs."""
        if job.status in ("done", "failed", "killed"):
            return  # finished, or superseded by a newer attempt
        self.grid.cancel(job)
        job.status = "killed"
        if self.obs.enabled:
            self.obs.count(
                "scheduler.timeouts",
                help="straggler attempts killed at step timeout",
            )
        if self.obs.recorder is not None:
            self.obs.recorder.event(
                "step.timeout",
                step=step.name,
                attempt=attempt,
                site=choice.site,
                sim=self.sim.now,
            )
        self._settle(step, attempt, choice, job)

    def _settle(
        self, step: PlanStep, attempt: int, choice: SiteChoice, job: JobRecord
    ) -> None:
        """Update site health, write provenance back, hand the outcome
        to the driver, and dispatch if the frontier may have moved."""
        name, site, now = step.name, choice.site, self.sim.now
        obs = self.obs
        if obs.enabled:
            obs.record(
                "scheduler.step",
                sim_start=job.submitted_at,
                sim_end=job.end_time,
                status="ok" if job.succeeded else "error",
                step=name,
                site=site,
                host=job.host,
                attempt=attempt,
            )
            obs.observe(
                "scheduler.step.queue_seconds",
                job.queue_seconds,
                help="simulated batch-queue wait per step",
            )
        if job.succeeded:
            if self.breakers is not None:
                self.breakers.breaker(site).record_success(now)
                self._note_breaker(site)
            if choice.ship_procedure:
                self.scheduler.selector.procedures.install(
                    step.transformation.name, site
                )
            if self.scheduler.step_listener is not None:
                self.scheduler.step_listener(step, choice, job)
        else:
            self._failed_sites.setdefault(name, set()).add(site)
            if self.breakers is not None:
                self.breakers.breaker(site).record_failure(now)
                self._note_breaker(site)
            if obs.enabled and job.fault:
                obs.count(
                    "scheduler.step.faults",
                    kind=job.fault,
                    help="failed attempts by fault kind",
                )
        outcome = Attempt(
            ok=job.succeeded,
            status=job.status,
            start=job.submitted_at,
            end=job.end_time if job.end_time is not None else now,
            site=site,
            value=job,
            host=job.host,
            fault=job.fault,
        )
        driver = self._driver()
        if driver.settle(name, outcome):
            driver.dispatch()

    def _note_breaker(self, site: str) -> None:
        code = self.breakers.breaker(site).state_code
        if self.obs.enabled:
            self.obs.gauge(
                "scheduler.breaker.state",
                code,
                site=site,
                help="per-site breaker (0=closed 1=half-open 2=open)",
            )
        if (
            self.obs.recorder is not None
            and self._breaker_states.get(site, 0) != code
        ):
            self.obs.recorder.event(
                "breaker.transition", site=site, state=code, sim=self.sim.now
            )
        self._breaker_states[site] = code
