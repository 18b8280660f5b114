"""DAGMan-style workflow execution management (§5.4).

"Derivation is conducted by workflow execution management systems that
dispatch computation or data transfer requests to specific grid sites,
and monitor their completion, dispatching nodes of the workflow graph
when the node's predecessor dependencies have completed.  An example of
such a scheduler is the Condor DAGMan facility."

:class:`WorkflowScheduler` dispatches a :class:`~repro.planner.dag.Plan`
onto the simulated grid: ready steps are submitted as jobs, completions
release successors, failures are retried up to a bound, and the whole
run is summarized in a :class:`WorkflowResult`.

Recovery behaviour is pluggable through
:class:`~repro.resilience.policies.RecoveryConfig`: retry backoff with
deterministic jitter, per-site circuit breakers with half-open probing,
failover (retries re-invoke the site selector with already-failed sites
excluded), per-attempt straggler timeouts, and the ``fail-fast`` vs
``run-what-you-can`` failure policy.  The default configuration
reproduces the historical behaviour exactly: immediate same-site
retries and fail-fast.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ExecutionError, PlanningError
from repro.grid.gram import GridExecutionService, JobRecord, JobSpec
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.dag import Frontier, Plan, PlanStep
from repro.planner.strategies import SiteChoice, SiteSelector
from repro.resilience.policies import (
    FAIL_FAST,
    RecoveryConfig,
)


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
        with self.obs.span(
            "scheduler.run",
            steps=len(plan.steps),
            pattern=self.pattern,
        ) as run_span:
            result = self._run(plan, completed or set(), until)
            if self.obs.enabled:
                run_span.set("peak_in_flight", result.peak_in_flight)
                run_span.set("failed", len(result.failed_steps))
                run_span.set("skipped", len(result.skipped_steps))
                run_span.set("resumed", len(result.pre_completed))
            return result

    def _run(
        self, plan: Plan, completed: set[str], until: Optional[float]
    ) -> WorkflowResult:
        obs = self.obs
        recorder = obs.recorder
        progress = obs.progress
        recovery = self.recovery
        policy = recovery.retry_policy
        breakers = recovery.breakers
        all_sites = sorted(self.selector.sites)
        result = WorkflowResult(plan=plan, started_at=self.grid.simulator.now)
        result.pre_completed = {n for n in completed if n in plan.steps}
        if recorder is not None:
            recorder.plan(plan)
        if progress is not None:
            progress.start_plan(plan)
            for name in result.pre_completed:
                progress.step_finished(name, "ok")
        # The incremental frontier: completions release successors
        # instead of a rescan of every step's dependencies each tick.
        frontier = Frontier(plan, done=result.pre_completed)
        frontier.fail_fast = recovery.failure_policy == FAIL_FAST
        result.failed_steps = frontier.failed
        in_flight: set[str] = set()
        attempts: dict[str, int] = {}
        #: Step -> sites where an attempt of it already failed.
        failed_sites: dict[str, set[str]] = {}
        #: Simulation time the workflow reached a terminal state; the
        #: clock may run past it (killed stragglers still hold hosts).
        finish_clock: dict[str, Optional[float]] = {"t": None}

        def note_terminal() -> None:
            if finish_clock["t"] is None and frontier.exhausted:
                finish_clock["t"] = self.grid.simulator.now

        #: Last recorded breaker state per site, so the recorder logs
        #: transitions rather than every touch.
        breaker_states: dict[str, int] = {}

        def note_breaker(site: str) -> None:
            if breakers is None:
                return
            code = breakers.breaker(site).state_code
            if obs.enabled:
                obs.gauge(
                    "scheduler.breaker.state",
                    code,
                    site=site,
                    help="per-site breaker (0=closed 1=half-open 2=open)",
                )
            if recorder is not None and breaker_states.get(site, 0) != code:
                recorder.event(
                    "breaker.transition",
                    site=site,
                    state=code,
                    sim=self.grid.simulator.now,
                )
            breaker_states[site] = code

        def dispatch_ready() -> None:
            if frontier.halted:
                return
            # The workflow-level width cap ("as many as 120 hosts in a
            # single workflow", §6) bounds jobs in flight globally.
            while self.max_hosts is None or len(in_flight) < self.max_hosts:
                name = frontier.take()
                if name is None:
                    break
                submit(name)
            if recorder is not None:
                recorder.sample(
                    ready=frontier.ready_count(),
                    in_flight=len(in_flight),
                    completed=len(frontier.completed),
                    total=len(plan.steps),
                    sim=self.grid.simulator.now,
                )

        def submit(name: str) -> None:
            step = plan.steps[name]
            now = self.grid.simulator.now
            candidates: Optional[list[str]] = None
            excluded = failed_sites.get(name)
            if recovery.failover and excluded:
                pool = [s for s in all_sites if s not in excluded]
                if pool:  # all sites failed: fall back to every site
                    candidates = pool
            if breakers is not None:
                pool = candidates if candidates is not None else all_sites
                avail = breakers.available(pool, now)
                if not avail and candidates is not None:
                    # Every failover candidate is tripped; widen to all.
                    avail = breakers.available(all_sites, now)
                if not avail:
                    # Every breaker open: park until the first cooldown
                    # expires (or poll while a half-open probe flies).
                    resume_at = breakers.earliest_retry(all_sites, now)
                    wait = resume_at - now
                    if wait <= 0:
                        wait = 1.0
                    if obs.enabled:
                        obs.count(
                            "scheduler.breaker.deferrals",
                            help="submissions delayed by open breakers",
                        )
                    if recorder is not None:
                        recorder.event(
                            "breaker.deferred",
                            step=name,
                            resume_at=resume_at,
                            sim=now,
                        )
                    self.grid.simulator.schedule(wait, lambda: submit(name))
                    return
                candidates = avail
            attempts[name] = attempts.get(name, 0) + 1
            in_flight.add(name)
            if progress is not None:
                progress.step_started(name)
            result.peak_in_flight = max(result.peak_in_flight, len(in_flight))
            if obs.enabled:
                obs.count(
                    "scheduler.dispatched", help="job submissions (incl. retries)"
                )
                if attempts[name] > 1:
                    obs.count("scheduler.retries", help="step resubmissions")
                obs.gauge(
                    "scheduler.in_flight",
                    len(in_flight),
                    help="steps currently submitted and incomplete",
                )
                obs.gauge(
                    "scheduler.queue_depth",
                    frontier.ready_count() - len(in_flight),
                    help="ready steps awaiting dispatch",
                )
            if candidates is None:
                choice = self.selector.choose(step, self.pattern, now=now)
            else:
                choice = self.selector.choose(
                    step, self.pattern, now=now, candidates=candidates
                )
            if breakers is not None:
                breakers.breaker(choice.site).admit(now)
                note_breaker(choice.site)
            spec = JobSpec(
                name=name,
                site=choice.site,
                cpu_seconds=step.cpu_seconds,
                inputs=step.inputs,
                outputs=dict(step.output_sizes),
                executable=step.transformation.executable,
                environment=dict(step.derivation.environment),
                # The width cap is enforced globally in dispatch_ready;
                # per-site host restriction is not additionally needed.
                max_hosts=None,
                setup_seconds=choice.procedure_seconds,
            )

            def conclude(record: JobRecord) -> None:
                in_flight.discard(name)
                if recorder is not None:
                    end = (
                        record.end_time
                        if record.end_time is not None
                        else self.grid.simulator.now
                    )
                    recorder.step(
                        name,
                        status=(
                            "success" if record.succeeded else "failure"
                        ),
                        start=record.submitted_at,
                        end=end,
                        clock="sim",
                        site=choice.site,
                        host=record.host,
                        attempt=attempts[name],
                        job_status=record.status,
                        fault=record.fault,
                    )
                if obs.enabled:
                    obs.record(
                        "scheduler.step",
                        sim_start=record.submitted_at,
                        sim_end=record.end_time,
                        status="ok" if record.succeeded else "error",
                        step=name,
                        site=choice.site,
                        host=record.host,
                        attempt=attempts[name],
                    )
                    obs.count(
                        "scheduler.steps",
                        status=record.status,
                        help="step completions by terminal status",
                    )
                    obs.observe(
                        "scheduler.step.queue_seconds",
                        record.queue_seconds,
                        help="simulated batch-queue wait per step",
                    )
                    obs.gauge("scheduler.in_flight", len(in_flight))

            def handle_success(record: JobRecord) -> None:
                frontier.complete(name)
                if breakers is not None:
                    breakers.breaker(choice.site).record_success(
                        self.grid.simulator.now
                    )
                    note_breaker(choice.site)
                if choice.ship_procedure:
                    self.selector.procedures.install(
                        step.transformation.name, choice.site
                    )
                result.outcomes[name] = StepOutcome(
                    step=name,
                    site=choice.site,
                    attempts=attempts[name],
                    record=record,
                )
                if self.step_listener is not None:
                    self.step_listener(step, choice, record)
                if progress is not None:
                    progress.step_finished(name, "ok")
                note_terminal()
                dispatch_ready()

            def handle_failure(record: JobRecord) -> None:
                failed_sites.setdefault(name, set()).add(choice.site)
                now = self.grid.simulator.now
                if breakers is not None:
                    breakers.breaker(choice.site).record_failure(now)
                    note_breaker(choice.site)
                if obs.enabled and record.fault:
                    obs.count(
                        "scheduler.step.faults",
                        kind=record.fault,
                        help="failed attempts by fault kind",
                    )
                if attempts[name] <= self.max_retries:
                    delay = policy.delay(attempts[name], key=name)
                    if obs.enabled:
                        obs.observe(
                            "scheduler.retry.backoff_seconds",
                            delay,
                            help="retry delays (sim time)",
                        )
                    if recorder is not None:
                        recorder.event(
                            "step.retry",
                            step=name,
                            attempt=attempts[name],
                            site=choice.site,
                            fault=record.fault,
                            delay=delay,
                            sim=now,
                        )
                    if delay <= 0.0:
                        # Synchronous resubmit preserves the historical
                        # event ordering of immediate retries.
                        submit(name)
                    else:
                        self.grid.simulator.schedule(
                            delay, lambda: submit(name)
                        )
                else:
                    obs.count(
                        "scheduler.failures",
                        help="steps failed after exhausting retries",
                    )
                    if recorder is not None:
                        recorder.event(
                            "step.failed",
                            step=name,
                            attempts=attempts[name],
                            site=choice.site,
                            fault=record.fault,
                            sim=now,
                        )
                    if progress is not None:
                        progress.step_finished(name, "failed")
                    result.outcomes[name] = StepOutcome(
                        step=name,
                        site=choice.site,
                        attempts=attempts[name],
                        record=record,
                    )
                    reason = f"upstream-failed:{name}"
                    for skipped in frontier.fail(name):
                        result.skipped_steps[skipped] = reason
                        if obs.enabled:
                            obs.count(
                                "scheduler.steps",
                                status="skipped",
                                help="step completions by terminal status",
                            )
                        if recorder is not None:
                            recorder.event(
                                "step.skipped",
                                step=skipped,
                                reason=reason,
                                sim=now,
                            )
                        if progress is not None:
                            progress.step_finished(skipped, "skipped")
                    note_terminal()
                    dispatch_ready()

            def on_complete(record: JobRecord) -> None:
                conclude(record)
                if not record.succeeded:
                    handle_failure(record)
                    return
                bad = self.grid.verify_outputs(record)
                if bad:
                    # Write-back validation: quarantine corrupt replicas
                    # and treat the attempt as failed so it re-executes.
                    for lfn in bad:
                        self.grid.quarantine(lfn, choice.site)
                    record.status = "failed"
                    record.fault = "corrupt"
                    record.error = (
                        "output verification failed for "
                        + ", ".join(sorted(bad))
                    )
                    handle_failure(record)
                    return
                handle_success(record)

            record = self.grid.submit(spec, on_complete)
            if recovery.step_timeout is not None:
                this_attempt = attempts[name]

                def watchdog() -> None:
                    # Stale timers: a newer attempt superseded this one,
                    # or the attempt already reached a terminal state.
                    if attempts.get(name) != this_attempt:
                        return
                    if record.status in ("done", "failed", "killed"):
                        return
                    self.grid.cancel(record)
                    record.status = "killed"
                    if obs.enabled:
                        obs.count(
                            "scheduler.timeouts",
                            help="straggler attempts killed at step timeout",
                        )
                    if recorder is not None:
                        recorder.event(
                            "step.timeout",
                            step=name,
                            attempt=this_attempt,
                            site=choice.site,
                            sim=self.grid.simulator.now,
                        )
                    conclude(record)
                    handle_failure(record)

                self.grid.simulator.schedule(recovery.step_timeout, watchdog)

        dispatch_ready()
        self.grid.simulator.run(until=until)
        if until is not None and not frontier.exhausted:
            # Killed mid-flight: drop abandoned events so a resume on
            # the same simulator cannot replay them.
            result.interrupted = True
            self.grid.simulator.flush()
        result.finished_at = (
            finish_clock["t"]
            if finish_clock["t"] is not None
            else self.grid.simulator.now
        )
        if (
            not result.succeeded
            and not result.failed_steps
            and not result.interrupted
        ):
            missing = sorted(set(plan.steps) - frontier.completed)
            raise ExecutionError(
                f"workflow stalled; steps never became ready: {missing[:5]}"
            )
        return result
