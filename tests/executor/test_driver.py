"""The plan-run driver over a scripted backend.

The backend below runs every step for ``DURATION`` on a clock of its
own and lets each test decide what ``admit`` answers and which steps
fail, so the driver's own policy — the width cap, hold-back, retries,
the failure policies and the skip walk — is checked without a grid or
a sandbox.
"""

import heapq
import itertools

from repro.catalog.memory import MemoryCatalog
from repro.executor.driver import UNTIL_SETTLED, Attempt, Driver
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest
from repro.resilience import ExponentialBackoff
from tests.resilience.conftest import TWO_BRANCH_VDL

DURATION = 10.0

#: Four independent one-step targets.
FOUR_VDL = TWO_BRANCH_VDL.split("DV ga")[0] + "".join(
    f'DV g{x}->gen( o=@{{output:"{x}0"}}, seed="{i}" );\n'
    for i, x in enumerate("abcd")
)


def plan_of(vdl, targets):
    catalog = MemoryCatalog().define(vdl)
    return Planner(catalog).plan(
        MaterializationRequest(targets=targets, reuse="never")
    )


class ScriptedBackend:
    namespace = "test"
    clock = "sim"

    def __init__(self, waits=None, failing=()):
        #: Step -> answers ``admit`` gives, in turn, before admitting.
        self.waits = {name: list(w) for name, w in (waits or {}).items()}
        self.failing = set(failing)
        self.clock_now = 0.0
        self.started: list[tuple[float, str, int]] = []
        self._timers: list = []
        self._seq = itertools.count()

    def now(self):
        return self.clock_now

    def later(self, delay, fn):
        heapq.heappush(
            self._timers, (self.clock_now + delay, next(self._seq), fn)
        )

    def admit(self, name):
        pending = self.waits.get(name)
        return pending.pop(0) if pending else None

    def start(self, name, attempt):
        self.started.append((self.clock_now, name, attempt))
        self.later(DURATION, lambda: self._finish(name))

    def _finish(self, name):
        ok = name not in self.failing
        outcome = Attempt(
            ok=ok,
            status="done" if ok else "failed",
            start=self.clock_now - DURATION,
            end=self.clock_now,
            site="here",
        )
        if self.driver.settle(name, outcome):
            self.driver.dispatch()

    def run(self, driver):
        self.driver = driver
        driver.dispatch()
        while self._timers:
            self.clock_now, _, fn = heapq.heappop(self._timers)
            fn()


def test_deferred_step_waits_for_a_free_slot():
    plan = plan_of(FOUR_VDL, ("a0", "b0", "c0", "d0"))
    backend = ScriptedBackend(waits={"ga": [5.0]})
    driver = Driver(plan, backend, max_hosts=2)
    driver.run()
    # ga is deferred at t=0 and due at t=5 while gb and gc hold both
    # slots; it goes first once they finish, ahead of gd.
    assert backend.started == [
        (0.0, "gb", 1),
        (0.0, "gc", 1),
        (10.0, "ga", 1),
        (10.0, "gd", 1),
    ]
    assert driver.peak_in_flight == 2
    assert driver.frontier.exhausted and driver.finished_at == 20.0


def test_held_step_is_offered_again_after_the_next_settle():
    plan = plan_of(FOUR_VDL, ("a0", "b0"))
    backend = ScriptedBackend(waits={"gb": [UNTIL_SETTLED]})
    driver = Driver(plan, backend)
    driver.run()
    assert backend.started == [(0.0, "ga", 1), (10.0, "gb", 1)]


def test_retries_then_skips_what_stands_behind_the_failure():
    plan = plan_of(TWO_BRANCH_VDL, ("a1", "b1"))
    backend = ScriptedBackend(failing={"ga"})
    driver = Driver(
        plan,
        backend,
        max_retries=2,
        retry_policy=ExponentialBackoff(base=1.0, jitter=0.0),
        fail_fast=False,
    )
    driver.run()
    # Retries come due 1 and 2 time units after each failure.
    assert [(t, a) for t, n, a in backend.started if n == "ga"] == [
        (0.0, 1),
        (11.0, 2),
        (23.0, 3),
    ]
    assert driver.attempts["ga"] == 3
    assert not driver.outcomes["ga"].ok
    assert driver.skipped == {"pa": "upstream-failed:ga"}
    assert driver.outcomes["pb"].ok


def test_fail_fast_takes_nothing_after_a_failure():
    plan = plan_of(TWO_BRANCH_VDL, ("a1", "b1"))
    backend = ScriptedBackend(failing={"ga"})
    driver = Driver(plan, backend, max_hosts=1)
    driver.run()
    assert [name for _, name, _ in backend.started] == ["ga"]
    assert driver.frontier.failed == {"ga"}
    assert driver.skipped == {"pa": "upstream-failed:ga"}
