"""The breaker state gauge and its recorded transitions.

Satellite check: ``scheduler.breaker.state`` must walk the automaton
closed(0) -> open(2) -> half-open(1) -> closed(0) as a site fails,
cools down, and recovers — and both the gauge and the fault counter
must survive into the OpenMetrics exposition.
"""

from __future__ import annotations

import pytest

from repro.observability import (
    FlightRecorder,
    Instrumentation,
    RunRecord,
    to_openmetrics,
    validate_openmetrics,
)
from repro.planner.scheduler import WorkflowScheduler
from repro.resilience import (
    BreakerBoard,
    FaultInjector,
    FaultPlan,
    ImmediateRetry,
    RecoveryConfig,
)

from tests.resilience.conftest import SINGLE_VDL, make_world


class CountdownInjector(FaultInjector):
    """Fails the first ``n`` attempts anywhere, then heals."""

    def __init__(self, n, instrumentation=None):
        super().__init__(FaultPlan(), instrumentation=instrumentation)
        self.remaining = n

    def run_fault(self, job, site, start, end):
        if self.remaining > 0:
            self.remaining -= 1
            self._record("transient")
            return ("transient", "injected for breaker test")
        return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBreakerGauge:
    def run_world(self, tmp_path, failures=2):
        obs = Instrumentation()
        injector = CountdownInjector(failures, instrumentation=obs)
        world = make_world(SINGLE_VDL, ("a0",), sites=("a",), injector=injector)
        recorder = FlightRecorder.start(
            tmp_path, run_id="run-breaker", command="test"
        )
        obs.attach_recorder(recorder)
        scheduler = WorkflowScheduler(
            world.grid,
            world.selector,
            pattern=world.pattern,
            max_retries=8,
            instrumentation=obs,
            recovery=RecoveryConfig(
                retry_policy=ImmediateRetry(),
                breakers=BreakerBoard(failure_threshold=2, cooldown=5.0),
                failover=False,
            ),
        )
        result = scheduler.run(world.plan)
        recorder.finalize(obs, status="ok", makespan=result.makespan)
        return obs, result, RunRecord.load(recorder.path)

    def test_transitions_walk_the_automaton(self, tmp_path):
        obs, result, record = self.run_world(tmp_path, failures=2)
        assert result.succeeded
        transitions = [
            e for e in record.events if e["kind"] == "breaker.transition"
        ]
        assert [t["site"] for t in transitions] == ["a", "a", "a"]
        # Two failures trip it open (2); the cooled-down probe admits
        # half-open (1); the probe's success closes it again (0).
        assert [t["state"] for t in transitions] == [2, 1, 0]
        sims = [t["sim"] for t in transitions]
        assert sims == sorted(sims)
        # The half-open probe waited out the 5s cooldown.
        assert sims[1] - sims[0] >= 5.0

    def test_gauge_lands_closed(self, tmp_path):
        obs, result, record = self.run_world(tmp_path, failures=2)
        gauge = obs.metrics.gauge("scheduler.breaker.state")
        assert gauge.value(site="a") == 0

    def test_no_transitions_without_failures(self, tmp_path):
        obs, result, record = self.run_world(tmp_path, failures=0)
        assert result.succeeded
        assert not [
            e for e in record.events if e["kind"] == "breaker.transition"
        ]
        # The gauge is still exported (touched at admit), just closed.
        assert obs.metrics.gauge("scheduler.breaker.state").value(site="a") == 0

    def test_breaker_and_fault_metrics_in_openmetrics(self, tmp_path):
        obs, result, record = self.run_world(tmp_path, failures=2)
        text = to_openmetrics(obs.metrics.to_dict())
        assert validate_openmetrics(text) == []
        assert "# TYPE scheduler_breaker_state gauge" in text
        assert 'scheduler_breaker_state{site="a"} 0' in text
        assert "# TYPE grid_faults_injected counter" in text
        assert 'grid_faults_injected_total{kind="transient"} 2' in text

    def test_history_charges_the_open_window(self, tmp_path):
        from repro.observability.health import site_stats

        obs, result, record = self.run_world(tmp_path, failures=2)
        stats = site_stats([record])
        # Open from the trip to the half-open probe: the 5s cooldown.
        assert stats["a"]["breaker_open_seconds"] == pytest.approx(
            5.0, abs=1.0
        )
        assert record.run_id == "run-breaker"
        assert record.faults == 2
