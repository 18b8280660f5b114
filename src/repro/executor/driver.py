"""The one frontier loop under every plan run, local or on the grid.

"Derivation is conducted by workflow execution management systems that
dispatch computation or data transfer requests to specific grid sites,
and monitor their completion, dispatching nodes of the workflow graph
when the node's predecessor dependencies have completed" (§5.4).

:class:`Driver` is that manager.  It holds all of a run's policy:

- the :class:`~repro.planner.dag.Frontier` and per-step attempt counts;
- the retry decision: a failed step is resubmitted, after the retry
  policy's delay, until it has been retried ``max_retries`` times;
- fail-fast versus run-what-you-can (the frontier's gate);
- the workflow width cap: every submission — first attempts, retries
  that come due and steps a backend deferred — waits for a free slot;
- publishing every attempt, retry, final failure and skip to the
  flight recorder, the progress sink and the metrics.

A :class:`Backend` keeps only what depends on the resource: where an
attempt runs, when it may start, how its outcome comes back.  The local
lanes (``repro.executor.local``) run steps inline, on a thread pool or
on a process pool and settle them from a blocking batch wait; the grid
backend (``repro.planner.scheduler``) submits GRAM jobs and settles
them from completion callbacks on the simulator's clock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

from repro.observability.instrument import NULL, Instrumentation
from repro.resilience.policies import ImmediateRetry, RetryPolicy

if TYPE_CHECKING:  # the planner's scheduler imports this module
    from repro.planner.dag import Frontier, Plan

#: What :meth:`Backend.admit` returns to hold a step until the next
#: step settles.
UNTIL_SETTLED = math.inf


@dataclass
class Attempt:
    """What one attempt of a step came to, as its backend reports it."""

    ok: bool
    #: The backend's own word for the outcome ("done", "killed", ...).
    status: str
    start: float
    end: float
    site: str
    #: What the attempt produced: an invocation, a job record.
    value: Any = None
    error: Optional[Exception] = None
    host: Optional[str] = None
    fault: Optional[str] = None


class Backend(Protocol):
    """Where a driver's steps run."""

    #: Prefix of the run's metric names (``<namespace>.in_flight``).
    namespace: str
    #: ``"wall"`` or ``"sim"``: the clock of stamps and of :meth:`later`.
    clock: str

    def now(self) -> float: ...

    def admit(self, name: str) -> Optional[float]:
        """``None`` when ``name`` may start now; else how long to wait
        before offering it again (:data:`UNTIL_SETTLED`: until the next
        step settles)."""

    def start(self, name: str, attempt: int) -> Optional[Attempt]:
        """Start an admitted step.  Returns its outcome if that is
        known at once; otherwise it arrives through
        :meth:`Driver.settle`."""

    def later(self, delay: float, fn: Callable[[], None]) -> None:
        """Call ``fn`` after ``delay`` on this backend's clock."""

    def run(self, driver: "Driver") -> None:
        """Dispatch, then settle outcomes until nothing is in flight."""


#: Help text of the driver's metrics, each under the backend's namespace.
HELP = {
    "dispatched": "step submissions (incl. retries)",
    "retries": "step resubmissions",
    "in_flight": "steps submitted and not yet settled",
    "queue_depth": "ready steps awaiting dispatch",
    "steps": "step attempts and skips by terminal status",
    "failures": "steps failed after exhausting retries",
    "retry.backoff_seconds": "retry delays (backend clock)",
}


class Driver:
    """One run of one plan over one backend."""

    def __init__(
        self,
        plan: Plan,
        backend: Backend,
        obs: Instrumentation = NULL,
        max_retries: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        fail_fast: bool = True,
        max_hosts: Optional[int] = None,
        done: Optional[set[str]] = None,
    ) -> None:
        self.plan = plan
        self.backend = backend
        self.obs = obs
        self.max_retries = max_retries
        self.retry_policy = retry_policy or ImmediateRetry()
        self.max_hosts = max_hosts
        #: Steps a rescue file already satisfied; they never run.
        self.pre_completed = {n for n in done or () if n in plan.steps}
        self.frontier: Frontier = plan.frontier(done=self.pre_completed)
        self.frontier.fail_fast = fail_fast
        self.attempts: dict[str, int] = {}
        #: Step -> its last attempt, for every step that succeeded or
        #: failed for good, in the order they did.
        self.outcomes: dict[str, Attempt] = {}
        #: Step -> why it never ran (``"upstream-failed:<step>"``).
        self.skipped: dict[str, str] = {}
        self.in_flight: set[str] = set()
        self.peak_in_flight = 0
        #: Backend time the frontier ran out of work, if it did.
        self.finished_at: Optional[float] = None
        #: Retries and deferred steps that came due while the width cap
        #: was reached, oldest first.
        self._waiting: deque[str] = deque()
        self._sim = backend.clock == "sim"

    def run(self) -> None:
        recorder, progress = self.obs.recorder, self.obs.progress
        if recorder is not None:
            recorder.plan(self.plan)
        if progress is not None:
            progress.start_plan(self.plan)
            for name in self.pre_completed:
                progress.step_finished(name, "ok")
        try:
            self.backend.run(self)
        finally:
            self._gauge("in_flight", 0)

    # -- dispatch ------------------------------------------------------------

    def dispatch(self) -> None:
        """Fill the free slots: due retries first, then the frontier's
        released steps in name order."""
        while self._waiting and self._room():
            self._submit(self._waiting.popleft())
        while self._room() and (name := self.frontier.take()) is not None:
            self._submit(name)
        if self.obs.recorder is not None:
            self.obs.recorder.sample(
                ready=self.frontier.ready_count(),
                in_flight=len(self.in_flight),
                completed=len(self.frontier.completed),
                total=len(self.plan.steps),
                **self._stamp(),
            )

    def _room(self) -> bool:
        return self.max_hosts is None or len(self.in_flight) < self.max_hosts

    def _offer(self, name: str) -> None:
        """A retry or deferred step came due: through the cap."""
        if self._room():
            self._submit(name)
        else:
            self._waiting.append(name)

    def _submit(self, name: str) -> None:
        wait = self.backend.admit(name)
        if wait == UNTIL_SETTLED:
            self.frontier.hold(name)
            return
        if wait is not None:
            self.backend.later(wait, lambda: self._offer(name))
            return
        attempt = self.attempts[name] = self.attempts.get(name, 0) + 1
        self.in_flight.add(name)
        self.peak_in_flight = max(self.peak_in_flight, len(self.in_flight))
        if self.obs.progress is not None:
            self.obs.progress.step_started(name)
        if self.obs.enabled:
            self._count("dispatched")
            if attempt > 1:
                self._count("retries")
            self._gauge("in_flight", len(self.in_flight))
            self._gauge(
                "queue_depth",
                self.frontier.ready_count() - len(self.in_flight),
            )
        outcome = self.backend.start(name, attempt)
        if outcome is not None:
            self.settle(name, outcome)
            del outcome  # a failed one's traceback holds this frame

    # -- settlement ----------------------------------------------------------

    def settle(self, name: str, outcome: Attempt) -> bool:
        """Take one attempt's outcome.  True when the step is finished
        for good (the frontier may have moved, a slot is free); false
        when a retry was arranged instead."""
        self.in_flight.discard(name)
        attempt = self.attempts[name]
        if self.obs.recorder is not None:
            self.obs.recorder.step(
                name,
                status="success" if outcome.ok else "failure",
                start=outcome.start,
                end=outcome.end,
                clock=self.backend.clock,
                site=outcome.site,
                host=outcome.host,
                attempt=attempt,
                job_status=outcome.status,
                fault=outcome.fault,
            )
        if self.obs.enabled:
            self._count("steps", status=outcome.status)
            self._gauge("in_flight", len(self.in_flight))
        if outcome.ok:
            self.frontier.complete(name)
            self.outcomes[name] = outcome
            if self.obs.progress is not None:
                self.obs.progress.step_finished(name, "ok")
        elif attempt <= self.max_retries:
            self._retry(name, attempt, outcome)
            return False
        else:
            self._fail(name, attempt, outcome)
        if self.finished_at is None and self.frontier.exhausted:
            self.finished_at = self.backend.now()
        return True

    def _retry(self, name: str, attempt: int, outcome: Attempt) -> None:
        delay = self.retry_policy.delay(attempt, key=name)
        if self.obs.enabled:
            self.obs.observe(
                f"{self.backend.namespace}.retry.backoff_seconds",
                delay,
                help=HELP["retry.backoff_seconds"],
            )
        if self.obs.recorder is not None:
            self.obs.recorder.event(
                "step.retry",
                step=name,
                attempt=attempt,
                site=outcome.site,
                fault=outcome.fault,
                delay=delay,
                **self._stamp(),
            )
        if delay <= 0.0:
            self._offer(name)
        else:
            self.backend.later(delay, lambda: self._offer(name))

    def _fail(self, name: str, attempt: int, outcome: Attempt) -> None:
        recorder, progress = self.obs.recorder, self.obs.progress
        self._count("failures")
        if recorder is not None:
            recorder.event(
                "step.failed",
                step=name,
                attempts=attempt,
                site=outcome.site,
                fault=outcome.fault,
                **self._stamp(),
            )
        if progress is not None:
            progress.step_finished(name, "failed")
        self.outcomes[name] = outcome
        reason = f"upstream-failed:{name}"
        for skipped in self.frontier.fail(name):
            self.skipped[skipped] = reason
            self._count("steps", status="skipped")
            if recorder is not None:
                recorder.event(
                    "step.skipped",
                    step=skipped,
                    reason=reason,
                    **self._stamp(),
                )
            if progress is not None:
                progress.step_finished(skipped, "skipped")

    # -- publication ---------------------------------------------------------

    def _stamp(self) -> dict[str, float]:
        return {"sim": self.backend.now()} if self._sim else {}

    def _count(self, metric: str, **labels: Any) -> None:
        if self.obs.enabled:
            name = f"{self.backend.namespace}.{metric}"
            self.obs.count(name, help=HELP[metric], **labels)

    def _gauge(self, metric: str, value: float) -> None:
        if self.obs.enabled:
            name = f"{self.backend.namespace}.{metric}"
            self.obs.gauge(name, value, help=HELP[metric])
