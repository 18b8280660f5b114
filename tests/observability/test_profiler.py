"""The sampling profiler and everything its profiles flow through.

Covers the profiler itself (phase attribution, nesting, memory
watermarks, exports), the recorder's schema-v2 ``profile`` line, the
Chrome-trace profiler lane, phase-level diff/regression gating — and,
because the schema version bumped, that pre-profile (v1) records
still load, report and diff exactly as before.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.observability.analysis import (
    chrome_trace,
    report_dict,
    validate_chrome_trace,
)
from repro.observability.diff import diff_records, regression_report
from repro.observability.instrument import NULL, Instrumentation
from repro.observability.profiler import (
    IDLE_PHASE,
    SamplingProfiler,
    collapsed_stacks,
    hot_frames,
    render_profile,
)
from repro.observability.recorder import (
    RECORD_FILENAME,
    RECORD_SCHEMA_VERSION,
    FlightRecorder,
    RunRecord,
)


def spin(seconds: float) -> int:
    """Burn CPU so the sampler has stacks to catch."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


def profiled_run(memory: bool = False) -> dict:
    """A short run with two marked phases, returned as a profile dict."""
    profiler = SamplingProfiler(interval=0.002, memory=memory)
    profiler.start()
    try:
        with profiler.phase("plan"):
            spin(0.08)
        with profiler.phase("execute"):
            spin(0.04)
            if memory:
                _ballast = bytearray(4_000_000)
                del _ballast
    finally:
        profiler.stop()
    return profiler.to_dict()


class TestSamplingProfiler:
    def test_samples_attribute_to_the_open_phase(self):
        profile = profiled_run()
        phases = profile["phases"]
        assert phases["plan"]["samples"] > 0
        assert phases["plan"]["seconds"] == pytest.approx(0.08, abs=0.06)
        assert phases["execute"]["seconds"] == pytest.approx(
            0.04, abs=0.06
        )
        # Stacks reach into this test file's spin loop.
        frames = [f for e in profile["stacks"] for f in e["frames"]]
        assert any("spin" in f for f in frames)

    def test_nested_phases_attribute_to_the_innermost(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler.start()
        try:
            with profiler.phase("outer"):
                with profiler.phase("inner"):
                    assert profiler.current_phase() == "inner"
                    spin(0.05)
                assert profiler.current_phase() == "outer"
        finally:
            profiler.stop()
        profile = profiler.to_dict()
        assert profile["phases"]["inner"]["samples"] > 0
        assert profile["phases"]["outer"]["samples"] <= (
            profile["phases"]["inner"]["samples"]
        )

    def test_unmarked_time_lands_in_the_idle_phase(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler.start()
        try:
            spin(0.04)
        finally:
            profiler.stop()
        assert profiler.to_dict()["phases"][IDLE_PHASE]["samples"] > 0

    def test_phase_intervals_are_wall_stamps(self):
        before = time.time()
        profile = profiled_run()
        after = time.time()
        for stat in profile["phases"].values():
            for start, end in stat["intervals"]:
                assert before <= start <= end <= after

    def test_memory_watermarks(self):
        profile = profiled_run(memory=True)
        assert profile["memory"] is True
        assert profile["phases"]["execute"]["peak_bytes"] >= 4_000_000

    def test_stack_cap_counts_what_it_drops(self):
        profile = profiled_run()
        capped = {
            **profile,
            "stacks": profile["stacks"][:1],
            "dropped_stacks": max(0, len(profile["stacks"]) - 1),
        }
        assert capped["dropped_stacks"] == len(profile["stacks"]) - 1
        assert "cold stacks not recorded" in render_profile(capped) or (
            capped["dropped_stacks"] == 0
        )

    def test_start_twice_is_an_error_and_stop_is_idempotent(self):
        profiler = SamplingProfiler(interval=0.01)
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()
        profiler.stop()
        profiler.stop()
        assert not profiler.running

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_profile_round_trips_through_json(self):
        profile = profiled_run()
        assert json.loads(json.dumps(profile)) == profile


class TestExports:
    def test_hot_frames_rank_leaves(self):
        profile = profiled_run()
        ranked = hot_frames(profile, phase="plan", top=5)
        assert ranked and all(count > 0 for _, count in ranked)
        assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))

    def test_collapsed_stacks_lead_with_the_phase(self):
        profile = profiled_run()
        lines = collapsed_stacks(profile)
        assert lines
        for line in lines:
            head, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert head.split(";")[0] in ("plan", "execute", IDLE_PHASE)

    def test_render_profile_names_phases_and_frames(self):
        text = render_profile(profiled_run(memory=True))
        assert "plan" in text and "execute" in text
        assert "samples" in text and "peak" in text


class TestInstrumentationPhase:
    def test_phase_is_a_noop_without_a_profiler(self):
        obs = Instrumentation()
        with obs.phase("plan"):
            pass  # nullcontext: nothing to assert beyond no-crash
        with NULL.phase("plan"):
            pass

    def test_phase_routes_to_the_attached_profiler(self):
        obs = Instrumentation()
        profiler = SamplingProfiler(interval=0.002)
        obs.attach_profiler(profiler)
        profiler.start()
        try:
            with obs.phase("plan"):
                spin(0.03)
        finally:
            profiler.stop()
        assert profiler.to_dict()["phases"]["plan"]["samples"] > 0

    def test_null_instrumentation_never_attaches(self):
        NULL.attach_profiler(SamplingProfiler())
        assert NULL.profiler is None


def recorded_profiled_run(tmp_path, name="prof", profile=None):
    """Write a minimal profiled record and load it back."""
    rec = FlightRecorder.start(tmp_path / name, command="materialize x")
    rec.step("s1", status="success", start=100.0, end=101.0, clock="wall")
    rec.profile(profile if profile is not None else profiled_run())
    rec.finalize(status="ok", makespan=1.0)
    return RunRecord.load(rec.path)


class TestRecorderSchemaV2:
    def test_profile_line_round_trips(self, tmp_path):
        profile = profiled_run()
        record = recorded_profiled_run(tmp_path, profile=profile)
        assert record.schema_version == RECORD_SCHEMA_VERSION == 2
        assert record.profile["samples"] == profile["samples"]
        assert set(record.profile["phases"]) == set(profile["phases"])

    def test_unprofiled_record_has_none(self, tmp_path):
        rec = FlightRecorder.start(tmp_path / "plain")
        rec.finalize(status="ok")
        assert RunRecord.load(rec.path).profile is None

    def test_report_includes_phases_only_when_profiled(self, tmp_path):
        profiled = recorded_profiled_run(tmp_path)
        data = report_dict(profiled)
        assert {"plan", "execute"} <= set(data["profile_phases"])
        rec = FlightRecorder.start(tmp_path / "plain")
        rec.finalize(status="ok")
        plain = report_dict(RunRecord.load(rec.path))
        assert "profile_phases" not in plain


class TestChromeTraceProfile:
    def test_profiler_lane_carries_phase_intervals(self, tmp_path):
        record = recorded_profiled_run(tmp_path)
        trace = chrome_trace(record)
        assert validate_chrome_trace(trace) == []
        names = {
            e["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "X"
        }
        assert "phase plan" in names and "phase execute" in names
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert "profiler" in lanes


def v1_record_lines(run_id="run-v1-000001"):
    """A hand-written schema-v1 record, as an old writer produced it."""
    return [
        {
            "type": "meta",
            "schema_version": 1,
            "run_id": run_id,
            "command": "materialize x",
            "started_at": 1000.0,
            "pid": 42,
            "t": 1000.0,
        },
        {
            "type": "plan",
            "targets": ["x"],
            "steps": [
                {
                    "name": "s1",
                    "transformation": "gen",
                    "cpu_seconds": 1.0,
                    "inputs": [],
                    "outputs": ["x"],
                    "deps": [],
                }
            ],
            "reused": [],
            "sources": [],
            "t": 1000.1,
        },
        {
            "type": "step",
            "step": "s1",
            "status": "success",
            "start": 100.0,
            "end": 102.5,
            "clock": "wall",
            "t": 1002.5,
        },
        {
            "type": "result",
            "status": "ok",
            "finished_at": 1003.0,
            "makespan": 2.5,
            "t": 1003.0,
        },
    ]


def write_v1_record(tmp_path, run_id="run-v1-000001"):
    run_dir = tmp_path / run_id
    run_dir.mkdir(parents=True)
    path = run_dir / RECORD_FILENAME
    path.write_text(
        "".join(
            json.dumps(line, sort_keys=True) + "\n"
            for line in v1_record_lines(run_id)
        ),
        encoding="utf-8",
    )
    return path


class TestSchemaV1BackCompat:
    """The v2 bump must not change anything about v1 records."""

    def test_v1_record_loads(self, tmp_path):
        record = RunRecord.load(write_v1_record(tmp_path))
        assert record.schema_version == 1
        assert record.profile is None
        assert record.makespan() == 2.5

    def test_future_schema_still_rejected(self, tmp_path):
        path = write_v1_record(tmp_path, "run-v9-000001")
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["schema_version"] = RECORD_SCHEMA_VERSION + 1
        lines[0] = json.dumps(meta, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            RunRecord.load(path)

    def test_v1_report_dict_is_byte_identical(self, tmp_path):
        """``report --json`` on a v1 record serializes exactly as it
        did before the profiler existed — no new keys, same bytes."""
        record = RunRecord.load(write_v1_record(tmp_path))
        data = report_dict(record)
        assert "profile_phases" not in data
        assert json.dumps(data, sort_keys=True) == json.dumps(
            report_dict(record), sort_keys=True
        )

    def test_v1_diff_carries_no_phase_keys(self, tmp_path):
        base = RunRecord.load(write_v1_record(tmp_path, "run-v1-a"))
        cand = RunRecord.load(write_v1_record(tmp_path, "run-v1-b"))
        diff = diff_records(base, cand)
        payload = diff.to_dict()
        assert "phases" not in payload
        assert "phase_regressions" not in payload
        assert diff.clean

    def test_v1_record_is_phaseless(self, tmp_path):
        record = RunRecord.load(write_v1_record(tmp_path))
        assert record.phases == {}
        assert record.schema_version == 1
        assert record.makespan() == 2.5

    def test_mixed_diff_v1_base_v2_candidate_stays_phaseless(
        self, tmp_path
    ):
        """Phase gating needs BOTH sides profiled; a v1 baseline never
        trips the phase gate."""
        base = RunRecord.load(write_v1_record(tmp_path))
        cand = recorded_profiled_run(tmp_path)
        diff = diff_records(base, cand)
        assert diff.phases == []
        assert diff.phase_regressions == []


def synthetic_profile(plan_seconds, execute_seconds):
    return {
        "interval": 0.005,
        "memory": False,
        "started": 1000.0,
        "stopped": 1010.0,
        "samples": 100,
        "phases": {
            "plan": {
                "samples": 50,
                "seconds": plan_seconds,
                "peak_bytes": 0,
                "intervals": [[1000.0, 1000.0 + plan_seconds]],
            },
            "execute": {
                "samples": 50,
                "seconds": execute_seconds,
                "peak_bytes": 0,
                "intervals": [
                    [1001.0, 1001.0 + execute_seconds]
                ],
            },
        },
        "stacks": [],
        "dropped_stacks": 0,
    }


class TestPhaseRegressionGating:
    def test_phase_blowup_fails_the_diff(self, tmp_path):
        base = recorded_profiled_run(
            tmp_path, "base", synthetic_profile(1.0, 1.0)
        )
        cand = recorded_profiled_run(
            tmp_path, "cand", synthetic_profile(3.0, 1.0)
        )
        diff = diff_records(base, cand)
        assert [d.transformation for d in diff.phase_regressions] == [
            "plan"
        ]
        assert not diff.clean
        assert "phase:plan" in diff.render()

    def test_steady_phases_stay_clean(self, tmp_path):
        base = recorded_profiled_run(
            tmp_path, "base", synthetic_profile(1.0, 1.0)
        )
        cand = recorded_profiled_run(
            tmp_path, "cand", synthetic_profile(1.05, 1.0)
        )
        diff = diff_records(base, cand)
        assert diff.phase_regressions == []
        assert diff.clean

    def test_regress_gates_on_history_phase_baseline(self, tmp_path):
        history = []
        for i in range(3):
            record = recorded_profiled_run(
                tmp_path, f"b{i}", synthetic_profile(1.0, 1.0)
            )
            history.append(record)
            assert record.phases["plan"]["seconds"] == pytest.approx(1.0)
        cand = recorded_profiled_run(
            tmp_path, "cand", synthetic_profile(4.0, 1.0)
        )
        diff = regression_report(history, cand)
        assert [
            d.transformation for d in diff.phase_regressions
        ] == ["plan"]
        assert not diff.clean
        plan = next(d for d in diff.phases if d.transformation == "plan")
        assert (plan.base_n, plan.base_mean) == (3, 1.0)
