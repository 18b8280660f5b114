"""Critical paths, profiles, and Chrome traces over run records.

The end-to-end class is the acceptance scenario from the flight
recorder work: a fault-injected 8-host grid run must yield a record
whose critical-path step durations sum to within 5% of the recorded
makespan, and whose Chrome trace passes the Trace Event shape check.
"""

from __future__ import annotations

import pytest

from repro.observability.analysis import (
    chrome_trace,
    compute_slack,
    critical_path,
    render_report,
    report_dict,
    site_profiles,
    transformation_profiles,
    validate_chrome_trace,
)
from repro.observability.instrument import Instrumentation
from repro.observability.recorder import FlightRecorder, RunRecord
from tests.observability.test_recorder import chain_plan, make_invocation


def diamond_record(tmp_path):
    """A hand-written diamond schedule with a known critical path.

    ``g`` feeds ``slow`` (0..8) and ``fast`` (0..2); ``top`` starts
    when ``slow`` finishes.  Critical path: g -> slow -> top, 12s.
    """
    rec = FlightRecorder.start(tmp_path, command="test diamond")
    rec._write(
        "plan",
        targets=["t"],
        steps=[
            {"name": "g", "transformation": "gen", "cpu_seconds": 1.0,
             "inputs": [], "outputs": ["a"], "deps": []},
            {"name": "slow", "transformation": "proc", "cpu_seconds": 8.0,
             "inputs": ["a"], "outputs": ["b"], "deps": ["g"]},
            {"name": "fast", "transformation": "proc", "cpu_seconds": 2.0,
             "inputs": ["a"], "outputs": ["c"], "deps": ["g"]},
            {"name": "top", "transformation": "merge", "cpu_seconds": 2.0,
             "inputs": ["b", "c"], "outputs": ["t"], "deps": ["slow", "fast"]},
        ],
        reused=[],
        sources=[],
    )
    rec.step("g", status="success", start=0.0, end=2.0, site="anl")
    rec.step("slow", status="success", start=2.0, end=10.0, site="anl")
    rec.step("fast", status="success", start=2.0, end=4.0, site="uc")
    rec.step("top", status="success", start=10.0, end=12.0, site="uc")
    rec.finalize(status="ok", makespan=12.0)
    return RunRecord.load(rec.path)


class TestCriticalPath:
    def test_walks_the_releasing_dependency(self, tmp_path):
        report = critical_path(diamond_record(tmp_path))
        assert [s.step for s in report.steps] == ["g", "slow", "top"]
        assert report.makespan == 12.0
        assert report.path_seconds == pytest.approx(12.0)
        assert report.coverage == pytest.approx(1.0)
        assert report.clock == "sim"

    def test_path_steps_have_zero_slack(self, tmp_path):
        record = diamond_record(tmp_path)
        slack = compute_slack(record)
        assert slack["g"] == 0.0
        assert slack["slow"] == 0.0
        assert slack["top"] == 0.0
        # ``fast`` could run 6s longer before delaying ``top``.
        assert slack["fast"] == pytest.approx(6.0)
        report = critical_path(record)
        assert all(s.slack == 0.0 for s in report.steps)

    def test_empty_record(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize()
        report = critical_path(RunRecord.load(rec.path))
        assert report.steps == []
        assert report.coverage == 0.0
        assert compute_slack(RunRecord.load(rec.path)) == {}

    def test_to_dict_shape(self, tmp_path):
        data = critical_path(diamond_record(tmp_path)).to_dict()
        assert data["makespan"] == 12.0
        assert [s["step"] for s in data["steps"]] == ["g", "slow", "top"]
        assert data["steps"][0]["duration"] == 2.0
        assert data["slack"]["fast"] == pytest.approx(6.0)


class TestProfiles:
    def record_with_invocations(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.plan(chain_plan())
        rec.invocation(make_invocation("g1", cpu=1.0, read=0))
        rec.invocation(make_invocation("p1", cpu=2.0, read=100))
        rec.invocation(make_invocation("p1", status="failure"))
        rec.finalize()
        return RunRecord.load(rec.path)

    def test_transformation_profiles(self, tmp_path):
        profiles = transformation_profiles(
            self.record_with_invocations(tmp_path)
        )
        by_name = {p["transformation"]: p for p in profiles}
        assert by_name["proc"]["runs"] == 2
        assert by_name["proc"]["failures"] == 1
        assert by_name["proc"]["mean_cpu_seconds"] == pytest.approx(2.0)
        assert by_name["proc"]["bytes_read"] == 100
        assert by_name["gen"]["failures"] == 0

    def test_unplanned_invocation_gets_placeholder_name(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.invocation(make_invocation("adhoc"))
        rec.finalize()
        profiles = transformation_profiles(RunRecord.load(rec.path))
        assert profiles[0]["transformation"] == "?adhoc"

    def test_site_profiles(self, tmp_path):
        profiles = site_profiles(self.record_with_invocations(tmp_path))
        assert [p["site"] for p in profiles] == ["anl"]
        assert profiles[0]["runs"] == 3
        assert profiles[0]["failures"] == 1
        assert profiles[0]["busy_seconds"] == pytest.approx(1.5 + 3.0)


class TestChromeTrace:
    def test_steps_and_spans_become_events(self, tmp_path):
        obs = Instrumentation()
        with obs.span("executor.materialize", targets="t"):
            pass
        rec = FlightRecorder.start(tmp_path)
        rec.step("g", status="success", start=1.0, end=3.0, site="anl")
        rec.finalize(obs)
        record = RunRecord.load(rec.path)
        trace = chrome_trace(record)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X"}
        step = next(e for e in events if e["name"] == "g")
        assert step["ts"] == 0.0  # relative to the first event
        assert step["dur"] == pytest.approx(2e6)
        lanes = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert "site anl" in lanes
        # The span carries wall stamps only; with a sim-clock record it
        # cannot be placed on the sim axis and is skipped.
        assert not any(
            e["name"] == "executor.materialize" for e in events
        )

    def test_wall_clock_record_places_spans(self, tmp_path):
        obs = Instrumentation()
        with obs.span("executor.materialize"):
            pass
        rec = FlightRecorder.start(tmp_path)
        rec.step(
            "g", status="success", start=10.0, end=11.0,
            clock="wall", site="local",
        )
        rec.finalize(obs)
        trace = chrome_trace(RunRecord.load(rec.path))
        assert validate_chrome_trace(trace) == []
        assert any(
            e["name"] == "executor.materialize"
            for e in trace["traceEvents"]
        )

    def test_empty_record_yields_empty_valid_trace(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize()
        trace = chrome_trace(RunRecord.load(rec.path))
        assert trace["traceEvents"] == []
        assert validate_chrome_trace(trace) == []

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    "not a dict",
                    {"ph": "X", "pid": 1, "tid": 1},  # no name/ts/dur
                    {"name": "m", "ph": "M", "pid": 1, "tid": 0},  # no args
                    {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                     "ts": 0, "dur": -5},
                ]
            }
        )
        assert any("not an object" in p for p in problems)
        assert any("missing 'name'" in p for p in problems)
        assert any("numeric ts" in p for p in problems)
        assert any("metadata event without args" in p for p in problems)
        assert any("non-negative dur" in p for p in problems)


class TestReport:
    def test_report_dict_aggregates(self, tmp_path):
        record = diamond_record(tmp_path)
        data = report_dict(record)
        assert data["status"] == "ok"
        assert data["makespan"] == 12.0
        assert data["steps"] == {"success": 4}
        assert data["critical_path"]["coverage"] == pytest.approx(1.0)

    def test_render_report_text(self, tmp_path):
        text = render_report(diamond_record(tmp_path))
        assert "makespan 12.000s" in text
        assert "critical path" in text
        assert "100.0% of makespan" in text
        assert "slow" in text
        # The time axis is relative to the first path step.
        assert text.index("0.000") < text.index("slow")


class TestGridFaultRunEndToEnd:
    """Acceptance: record a fault-injected 8-host grid run and mine it."""

    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        from repro.resilience import FaultPlan, RecoveryConfig
        from repro.system import VirtualDataSystem
        from repro.workloads import hep

        obs = Instrumentation()
        vds = VirtualDataSystem.with_grid(
            {"a": 4, "b": 4},
            instrumentation=obs,
            fault_plan=FaultPlan(seed=3, transient_rate=0.2),
            recovery=RecoveryConfig.hardened(seed=3),
        )
        vds.executor.max_retries = 10
        target = hep.define_run(vds.catalog, "run1", seed=3, events=50)
        rec = FlightRecorder.start(
            tmp_path_factory.mktemp("runs"), command="grid acceptance"
        )
        obs.attach_recorder(rec)
        result = vds.materialize(target, reuse="never")
        assert result.succeeded
        rec.finalize(obs, status="ok", makespan=result.makespan)
        return RunRecord.load(rec.path)

    def test_critical_path_tiles_the_makespan(self, record):
        report = critical_path(record)
        assert report.steps
        assert report.clock == "sim"
        makespan = record.makespan()
        assert makespan is not None and makespan > 0
        # The acceptance bar: path durations within 5% of makespan.
        assert abs(report.path_seconds - makespan) <= 0.05 * makespan

    def test_record_captured_every_layer(self, record):
        assert record.dependencies()  # the plan line
        assert record.step_timings()  # scheduler step lines
        assert record.invocations  # grid executor write-back
        assert record.samples  # frontier occupancy
        assert record.spans  # finalize dumped the span tree
        assert record.counter_total("scheduler.steps") > 0

    def test_chrome_trace_is_well_formed(self, record):
        trace = chrome_trace(record)
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(n.startswith("run1.") for n in names)

    def test_report_renders(self, record):
        text = render_report(record)
        assert "grid acceptance" in text
        assert "critical path" in text
        assert "site profiles" in text


def chain_record(tmp_path, depth):
    """A ``depth``-step linear chain, one second per step."""
    rec = FlightRecorder.start(tmp_path, command="test chain")
    rec._write(
        "plan",
        targets=[f"d{depth - 1}"],
        steps=[
            {
                "name": f"s{i}",
                "transformation": "proc",
                "cpu_seconds": 1.0,
                "inputs": [f"d{i - 1}"] if i else [],
                "outputs": [f"d{i}"],
                "deps": [f"s{i - 1}"] if i else [],
            }
            for i in range(depth)
        ],
        reused=[],
        sources=[],
    )
    for i in range(depth):
        rec.step(
            f"s{i}", status="success", start=float(i), end=float(i + 1)
        )
    rec.finalize(status="ok", makespan=float(depth))
    return RunRecord.load(rec.path)


class TestDeepChains:
    """CPM must be iterative: real campaign graphs nest thousands of
    levels deep, far past Python's default recursion limit."""

    DEPTH = 5000

    def test_slack_survives_a_5000_deep_chain(self, tmp_path):
        record = chain_record(tmp_path, self.DEPTH)
        slack = compute_slack(record)  # recursion would die near ~10^3
        assert len(slack) == self.DEPTH
        assert all(value == 0.0 for value in slack.values())

    def test_critical_path_covers_the_whole_chain_in_order(self, tmp_path):
        record = chain_record(tmp_path, self.DEPTH)
        report = critical_path(record)
        assert [s.step for s in report.steps] == [
            f"s{i}" for i in range(self.DEPTH)
        ]
        assert report.coverage == pytest.approx(1.0)
