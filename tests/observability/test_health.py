"""Grid health SLOs: per-site scorecards and scheduler feedback."""

from __future__ import annotations

import pytest

from repro.observability.health import (
    CRITICAL,
    DEGRADED,
    OK,
    HealthReport,
    SiteHealth,
    SLOPolicy,
    grid_health,
    health_metrics,
    health_penalties,
    percentile,
)
from repro.observability.recorder import FlightRecorder, load_runs

from tests.observability.test_history import chain_plan, write_run


def faulty_run(runs_root, run_id, bad_site="bad", ok_site="ok"):
    """One run where every step first fails at ``bad_site`` and then
    succeeds at ``ok_site`` — the seeded-fault-window shape."""
    rec = FlightRecorder.start(runs_root, run_id=run_id, command="test")
    rec.plan(chain_plan())
    rec.step("g1", status="failure", start=0.0, end=2.0, site=bad_site)
    rec.event("fault.injected", fault="outage")
    rec.step("g1", status="success", start=2.0, end=4.0, site=ok_site)
    rec.step("p1", status="failure", start=4.0, end=6.0, site=bad_site)
    rec.event("fault.injected", fault="outage")
    rec.step("p1", status="success", start=6.0, end=8.0, site=ok_site)
    rec.finalize(status="ok", makespan=8.0)


class TestPercentile:
    def test_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        assert percentile(xs, 95.0) == 95.0
        assert percentile(xs, 50.0) == 50.0
        assert percentile([], 95.0) == 0.0

    def test_bad_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150.0)


class TestSLOPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(success_target=1.5)
        with pytest.raises(ValueError):
            SLOPolicy(burn_degraded=2.0, burn_critical=1.0)


class TestGridHealth:
    def test_seeded_fault_window_degrades_the_site(self, tmp_path):
        """Acceptance: the site subjected to the fault window reports a
        degraded (here: critical) SLO; the healthy site stays ok."""
        faulty_run(tmp_path, "run-f")
        runs = load_runs(tmp_path)
        report = grid_health(runs)
        bad = report.site("bad")
        assert bad.status in (DEGRADED, CRITICAL)
        assert bad.failures == 2
        assert bad.success_rate == 0.0
        assert bad.error_budget_burn > 1.0
        assert report.site("ok").status == OK
        assert report.status in (DEGRADED, CRITICAL)

    def test_all_healthy_reports_ok(self, tmp_path):
        write_run(tmp_path, "run-a", site="a")
        runs = load_runs(tmp_path)
        report = grid_health(runs)
        assert report.status == OK
        assert report.site("a").error_budget_burn == 0.0

    def test_breaker_open_time_degrades(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, run_id="run-b")
        rec.plan(chain_plan())
        rec.step("g1", status="success", start=0.0, end=30.0, site="a")
        rec.step("p1", status="success", start=30.0, end=40.0, site="a")
        rec.event("breaker.transition", site="a", state=2, sim=5.0)
        rec.event("breaker.transition", site="a", state=0, sim=15.0)
        rec.finalize(status="ok")
        runs = load_runs(tmp_path)
        site = grid_health(runs).site("a")
        assert site.breaker_open_seconds == 10.0
        assert site.status == DEGRADED
        assert any("breaker" in r for r in site.reasons)

    def test_latency_outlier_degrades(self, tmp_path):
        # Site "slow" runs the same work 10x slower than its peers.
        for i in range(3):
            write_run(tmp_path, f"run-{i}", site="fast")
        write_run(
            tmp_path, "run-slow",
            gen_seconds=50.0, proc_seconds=50.0, site="slow",
        )
        runs = load_runs(tmp_path)
        report = grid_health(runs)
        assert report.site("slow").status == DEGRADED
        assert any(
            "latency" in r for r in report.site("slow").reasons
        )
        assert report.site("fast").status == OK

    def test_window_bounds_history(self, tmp_path):
        faulty_run(tmp_path, "run-old")
        for i in range(3):
            write_run(tmp_path, f"run-{i}", site="ok")
        runs = load_runs(tmp_path)
        # A window covering only the recent clean runs: no bad site.
        report = grid_health(runs, window=3)
        assert report.site("bad") is None
        assert report.status == OK
        # The full window still sees the fault.
        assert grid_health(runs, window=0).site("bad") is not None

    def test_render_and_to_dict(self, tmp_path):
        faulty_run(tmp_path, "run-f")
        runs = load_runs(tmp_path)
        report = grid_health(runs)
        text = report.render()
        assert "grid health:" in text
        assert "bad" in text
        data = report.to_dict()
        assert data["status"] in (DEGRADED, CRITICAL)
        assert {s["site"] for s in data["sites"]} == {"bad", "ok"}


class TestHealthPenalties:
    def make_report(self, status, burn=0.0):
        site = SiteHealth(
            site="s", attempts=10, failures=0, success_rate=1.0,
            error_budget_burn=burn, p95_latency=1.0,
            grid_p95_latency=1.0, breaker_open_seconds=0.0,
            status=status,
        )
        return HealthReport(
            sites=[site], runs_considered=1, policy=SLOPolicy()
        )

    def test_ok_costs_nothing(self):
        assert health_penalties(self.make_report(OK)) == {"s": 0.0}

    def test_degraded_charged_by_burn(self):
        assert health_penalties(
            self.make_report(DEGRADED, burn=2.0), scale=60.0
        ) == {"s": 120.0}

    def test_degraded_without_burn_still_charged(self):
        # Latency/breaker-only degradation: burn 0 floors at 1x scale.
        assert health_penalties(
            self.make_report(DEGRADED, burn=0.0), scale=60.0
        ) == {"s": 60.0}

    def test_critical_at_least_double(self):
        assert health_penalties(
            self.make_report(CRITICAL, burn=0.5), scale=60.0
        ) == {"s": 120.0}

    def test_selector_prefers_healthy_site(self, tmp_path):
        """The feedback loop: penalties steer placement away from the
        degraded site while keeping it usable."""
        from tests.resilience.conftest import SINGLE_VDL, make_world

        world = make_world(SINGLE_VDL, ("a0",), sites=("a", "b"))
        step = world.plan.steps["g1"]
        # Tie: deterministic choice is alphabetically first ("a").
        assert world.selector.choose(step, "ship-both").site == "a"
        world.selector.set_penalties({"a": 120.0})
        assert world.selector.choose(step, "ship-both").site == "b"
        # Sole-site fallback: a penalized site still runs work.
        assert (
            world.selector.choose(
                step, "ship-both", candidates=["a"]
            ).site
            == "a"
        )

    def test_negative_penalty_rejected(self, tmp_path):
        from repro.errors import PlanningError
        from tests.resilience.conftest import SINGLE_VDL, make_world

        world = make_world(SINGLE_VDL, ("a0",))
        with pytest.raises(PlanningError):
            world.selector.set_penalties({"a": -1.0})
        with pytest.raises(PlanningError):
            world.selector.set_penalty("a", -1.0)


class TestSystemIntegration:
    def test_apply_site_health_installs_penalties(self, tmp_path):
        from repro.system import VirtualDataSystem

        faulty_run(tmp_path, "run-f", bad_site="a", ok_site="b")
        runs = load_runs(tmp_path)
        report = grid_health(runs)
        vds = VirtualDataSystem.with_grid({"a": 2, "b": 2})
        applied = vds.apply_site_health(report)
        assert applied["a"] > 0.0
        assert applied["b"] == 0.0
        assert vds.selector.penalty_seconds("a") == applied["a"]

    def test_apply_accepts_raw_mapping_and_filters_unknown(self):
        from repro.system import VirtualDataSystem

        vds = VirtualDataSystem.with_grid({"a": 2})
        applied = vds.apply_site_health({"a": 30.0, "ghost": 99.0})
        assert applied == {"a": 30.0}

    def test_train_on_history(self, tmp_path):
        from repro.system import VirtualDataSystem

        write_run(tmp_path, "run-a", gen_seconds=4.0, proc_seconds=6.0)
        runs = load_runs(tmp_path)
        vds = VirtualDataSystem.with_grid({"a": 2})
        trained = vds.train_on_history(runs)
        assert set(trained) == {"gen", "proc"}
        assert trained["gen"].is_fitted
        assert trained["gen"].predict_cpu_seconds(100) == pytest.approx(
            4.0
        )


class TestHealthMetrics:
    def test_families_in_registry_shape(self, tmp_path):
        faulty_run(tmp_path, "run-f")
        runs = load_runs(tmp_path)
        families = health_metrics(grid_health(runs))
        assert families["site.health.status"]["kind"] == "gauge"
        by_site = {
            s["labels"]["site"]: s["value"]
            for s in families["site.health.status"]["series"]
        }
        assert by_site["bad"] >= 1
        assert by_site["ok"] == 0
        assert families["grid.health.status"]["series"][0]["value"] >= 1
