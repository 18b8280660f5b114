"""Run-diff and regression detection: the cross-run alarm path."""

from __future__ import annotations

import pytest

from repro.observability.diff import (
    diff_records,
    is_significant,
    regression_report,
    welch_t,
)
from repro.catalog.memory import MemoryCatalog
from repro.observability.recorder import FlightRecorder, RunRecord, load_runs
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest

from tests.observability.test_history import CHAIN_VDL, chain_plan, write_run


def load(runs_root, run_id) -> RunRecord:
    return RunRecord.load(runs_root / run_id)


class TestSignificance:
    def test_welch_t_needs_two_samples_each(self):
        assert welch_t([1.0], [2.0, 3.0]) is None
        assert welch_t([1.0, 1.0], [2.0]) is None

    def test_welch_t_zero_variance_defers(self):
        # Deterministic sim runs: identical values, zero variance.
        assert welch_t([5.0, 5.0], [10.0, 10.0]) is None

    def test_relative_threshold(self):
        assert is_significant([4.0], [8.0])  # +100%
        assert not is_significant([4.0], [4.5])  # +12.5% < 25%

    def test_absolute_floor_quiets_microsecond_noise(self):
        # +100% relative but only 0.2ms absolute: not significant.
        assert not is_significant([0.0002], [0.0004])

    def test_variance_gate_quiets_noisy_overlap(self):
        # Means differ by >25% but the spread swamps the shift.
        base = [1.0, 5.0, 2.0, 6.0]
        cand = [2.0, 6.0, 3.0, 7.5]
        assert welch_t(base, cand) < 2.0
        assert not is_significant(base, cand)


class TestDiffRecords:
    def test_flags_exactly_the_slowed_transformation(self, tmp_path):
        """Acceptance: one transformation slowed 2x is flagged — and
        nothing else is."""
        write_run(tmp_path, "run-base", gen_seconds=5.0, proc_seconds=5.0)
        write_run(tmp_path, "run-slow", gen_seconds=5.0, proc_seconds=10.0)
        diff = diff_records(
            load(tmp_path, "run-base"), load(tmp_path, "run-slow")
        )
        assert [d.transformation for d in diff.regressions] == ["proc"]
        assert not diff.clean
        proc = next(
            d for d in diff.transformations if d.transformation == "proc"
        )
        assert proc.delta == pytest.approx(5.0)
        assert proc.delta_pct == pytest.approx(100.0)
        gen = next(
            d for d in diff.transformations if d.transformation == "gen"
        )
        assert not gen.significant

    def test_identical_runs_are_clean(self, tmp_path):
        write_run(tmp_path, "run-a")
        write_run(tmp_path, "run-b")
        diff = diff_records(
            load(tmp_path, "run-a"), load(tmp_path, "run-b")
        )
        assert diff.clean
        assert diff.regressions == []
        assert diff.makespan == (10.0, 10.0)

    def test_improvement_is_not_a_regression(self, tmp_path):
        write_run(tmp_path, "run-base", proc_seconds=10.0)
        write_run(tmp_path, "run-fast", proc_seconds=5.0)
        diff = diff_records(
            load(tmp_path, "run-base"), load(tmp_path, "run-fast")
        )
        assert diff.clean
        assert [d.transformation for d in diff.improvements] == ["proc"]

    def test_counters_compared(self, tmp_path):
        write_run(tmp_path, "run-a")
        write_run(
            tmp_path,
            "run-b",
            events=[("fault.injected", {"fault": "transient"})],
        )
        diff = diff_records(
            load(tmp_path, "run-a"), load(tmp_path, "run-b")
        )
        assert diff.faults == (0, 1)

    def test_makespan_regression_flagged(self, tmp_path):
        write_run(tmp_path, "run-a", gen_seconds=5.0, proc_seconds=5.0)
        write_run(tmp_path, "run-b", gen_seconds=10.0, proc_seconds=10.0)
        diff = diff_records(
            load(tmp_path, "run-a"), load(tmp_path, "run-b")
        )
        assert diff.makespan_significant
        assert diff.makespan_regressed
        assert not diff.clean

    def test_render_and_to_dict(self, tmp_path):
        write_run(tmp_path, "run-a")
        write_run(tmp_path, "run-b", proc_seconds=10.0)
        diff = diff_records(
            load(tmp_path, "run-a"), load(tmp_path, "run-b")
        )
        text = diff.render()
        assert "REGRESSED: proc" in text
        assert "makespan" in text
        data = diff.to_dict()
        assert data["regressions"] == ["proc"]
        assert data["clean"] is False

    def test_custom_threshold(self, tmp_path):
        write_run(tmp_path, "run-a", proc_seconds=5.0)
        write_run(tmp_path, "run-b", proc_seconds=5.6)  # +12%
        a, b = load(tmp_path, "run-a"), load(tmp_path, "run-b")
        assert diff_records(a, b).clean  # default 25%
        assert not diff_records(a, b, threshold_pct=10.0).clean


class TestRegressionReport:
    def test_candidate_against_pooled_baseline(self, tmp_path):
        for i in range(3):
            write_run(tmp_path, f"run-{i}")
        write_run(tmp_path, "run-slow", proc_seconds=10.0)
        runs = load_runs(tmp_path)
        diff = regression_report(runs, load(tmp_path, "run-slow"))
        assert [d.transformation for d in diff.regressions] == ["proc"]
        proc = next(
            d for d in diff.transformations if d.transformation == "proc"
        )
        assert proc.base_n == 3  # pooled across the baseline runs

    def test_candidate_excluded_from_baseline(self, tmp_path):
        write_run(tmp_path, "run-a")
        write_run(tmp_path, "run-slow", proc_seconds=10.0)
        runs = load_runs(tmp_path)
        diff = regression_report(runs, load(tmp_path, "run-slow"))
        # Baseline is run-a only; the candidate never dilutes it.
        assert diff.regressions

    def test_explicit_baseline_ids(self, tmp_path):
        write_run(tmp_path, "run-a")
        write_run(tmp_path, "run-b", proc_seconds=10.0)
        write_run(tmp_path, "run-c", proc_seconds=10.0)
        runs = load_runs(tmp_path)
        diff = regression_report(
            runs, load(tmp_path, "run-c"), baseline_ids=["run-b"]
        )
        assert diff.clean  # vs run-b (same timing) it is not a regression

    def test_no_baseline_errors(self, tmp_path):
        write_run(tmp_path, "run-only")
        runs = load_runs(tmp_path)
        with pytest.raises(ValueError, match="no baseline"):
            regression_report(runs, load(tmp_path, "run-only"))

    def test_unknown_baseline_errors(self, tmp_path):
        write_run(tmp_path, "run-a")
        write_run(tmp_path, "run-b")
        runs = load_runs(tmp_path)
        with pytest.raises(ValueError, match="run-nope"):
            regression_report(
                runs,
                load(tmp_path, "run-b"),
                baseline_ids=["run-nope"],
            )


class TestOneDecoder:
    """diff and regress read one decode of a record."""

    def test_every_plan_line_resolves_transformations(self, tmp_path):
        catalog = MemoryCatalog().define(CHAIN_VDL).define(
            'DV g2->gen( o=@{output:"b0"}, seed="7" );'
        )
        planner = Planner(catalog, cpu_estimate=lambda dv: 5.0)
        for run_id in ("run-a", "run-b"):
            rec = FlightRecorder.start(tmp_path, run_id=run_id)
            # One materialize call per target, as a campaign's sinks.
            for target, step in (("a0", "g1"), ("b0", "g2")):
                rec.plan(planner.plan(
                    MaterializationRequest(targets=(target,), reuse="never")
                ))
                rec.step(step, status="success", start=0.0, end=2.0)
            rec.finalize(status="ok")
        assert [r.duration_samples() for r in load_runs(tmp_path)] == [
            {"gen": [2.0, 2.0]}
        ] * 2
        record = load(tmp_path, "run-a")
        diff = diff_records(record, load(tmp_path, "run-b"))
        assert [d.transformation for d in diff.transformations] == ["gen"]
        assert diff.transformations[0].base_n == 2
        assert [a.transformation for a in record.attempts] == ["gen", "gen"]

    def test_diff_and_regress_agree_on_a_retried_step(self, tmp_path):
        for run_id in ("a", "b"):
            rec = FlightRecorder.start(tmp_path, run_id=run_id)
            rec.plan(chain_plan())
            rec.step("g1", status="failure", start=0.0, end=1.0, attempt=1)
            rec.event("step.retry", step="g1", attempt=1, delay=2.0)
            rec.step("g1", status="success", start=3.0, end=4.0, attempt=2)
            rec.step("p1", status="success", start=4.0, end=5.0, attempt=1)
            rec.finalize(status="ok", makespan=5.0)
        base, cand = load(tmp_path, "a"), load(tmp_path, "b")
        assert diff_records(base, cand).clean
        report = regression_report([base], cand, ["a"])
        assert report.clean, report.render()
        assert report.retries == (1, 1)
        # One duration: the successful attempt's end - start.
        assert cand.duration_samples() == {"gen": [1.0], "proc": [1.0]}
