"""End-to-end: one instrumented materialize yields one coherent
span tree (plan → schedule → execute → transfer) and one metric
namespace spanning catalog, planner, scheduler, executor and grid."""

from __future__ import annotations

import pytest

from repro.observability import Instrumentation
from repro.observability.export import (
    read_snapshot,
    render_span_tree,
    to_openmetrics,
    write_snapshot,
)
from repro.system import VirtualDataSystem
from tests.conftest import DIAMOND_VDL


@pytest.fixture
def traced_run():
    """One materialize of the diamond pipeline on a two-site grid.

    One host per site forces the scheduler to spread steps across
    sites, so the run includes a wide-area transfer.
    """
    obs = Instrumentation()
    vds = VirtualDataSystem.with_grid(
        sites={"anl": 1, "uc": 1}, instrumentation=obs
    )
    vds.define(DIAMOND_VDL)
    result = vds.materialize("final")
    assert result.succeeded
    return obs, vds


class TestSpanTree:
    def test_covers_plan_schedule_execute_transfer(self, traced_run):
        obs, _ = traced_run
        names = obs.tracer.span_names()
        assert {
            "vds.materialize",
            "executor.plan",
            "planner.plan",
            "executor.run",
            "scheduler.run",
            "scheduler.step",
            "grid.transfer",
        } <= names

    def test_tree_is_rooted_and_nested(self, traced_run):
        obs, _ = traced_run
        tracer = obs.tracer
        materialize = tracer.spans("vds.materialize")[0]
        assert materialize.parent_id is None
        # plan and run are descendants of materialize
        executor_span = tracer.spans("executor.materialize")[0]
        assert executor_span.parent_id == materialize.span_id
        run = tracer.spans("executor.run")[0]
        assert run.parent_id == executor_span.span_id
        scheduler = tracer.spans("scheduler.run")[0]
        assert scheduler.parent_id == run.span_id
        # job and transfer spans hang off the scheduler run
        for step in tracer.spans("scheduler.step"):
            assert step.parent_id == scheduler.span_id
        for transfer in tracer.spans("grid.transfer"):
            assert transfer.parent_id == scheduler.span_id

    def test_spans_carry_both_clocks(self, traced_run):
        obs, _ = traced_run
        materialize = obs.tracer.spans("vds.materialize")[0]
        assert materialize.wall_seconds > 0
        assert materialize.sim_seconds > 0  # grid time passed
        step = obs.tracer.spans("scheduler.step")[0]
        assert step.sim_seconds > 0  # jobs take sim time
        assert step.attributes["site"] in ("anl", "uc")

    def test_one_step_span_per_plan_step(self, traced_run):
        obs, _ = traced_run
        assert len(obs.tracer.spans("scheduler.step")) == 5  # diamond

    def test_render_is_non_empty(self, traced_run):
        obs, _ = traced_run
        text = render_span_tree(obs.tracer)
        assert "vds.materialize" in text
        assert "grid.transfer" in text


class TestMetrics:
    def test_every_layer_reports(self, traced_run):
        obs, _ = traced_run
        names = set(obs.metrics.names())
        assert {
            "catalog.ops",
            "catalog.op.seconds",
            "planner.plans",
            "planner.plan.steps",
            "scheduler.dispatched",
            "scheduler.steps",
            "scheduler.step.queue_seconds",
            "executor.reuse.hits",
            "grid.jobs.submitted",
            "grid.jobs.completed",
            "grid.transfers",
            "grid.transfer.bytes",
            "sim.events",
            "sim.clock_seconds",
        } <= names

    def test_counts_are_consistent_with_the_run(self, traced_run):
        obs, _ = traced_run
        metrics = obs.metrics
        assert metrics.get("scheduler.dispatched").total() == 5
        assert metrics.get("scheduler.steps").value(status="done") == 5
        assert metrics.get("grid.jobs.submitted").total() == 5
        assert metrics.get("grid.transfers").value(scope="wide-area") >= 1
        assert metrics.get("grid.transfer.bytes").total() > 0
        assert metrics.get("catalog.ops").total() > 0

    def test_site_gauges_present(self, traced_run):
        obs, _ = traced_run
        utilization = obs.metrics.get("grid.site.utilization")
        assert utilization is not None
        sites = {dict(k)["site"] for k, _ in utilization.series()}
        assert sites == {"anl", "uc"}

    def test_prometheus_export_contains_run_data(self, traced_run):
        obs, _ = traced_run
        text = to_openmetrics(obs.metrics.to_dict())
        assert "# TYPE scheduler_dispatched counter" in text
        assert "# TYPE grid_transfer_seconds histogram" in text
        assert 'grid_jobs_completed_total{site=' in text


class TestReuseVisibility:
    def test_second_materialize_counts_reuse_hits(self, traced_run):
        obs, vds = traced_run
        before = obs.metrics.get("executor.reuse.hits").total()
        result = vds.materialize("final", reuse="always")
        assert result.succeeded
        assert obs.metrics.get("executor.reuse.hits").total() > before
        assert obs.metrics.get("planner.reuse.hits").total() > 0


class TestSnapshot:
    def test_write_snapshot_persists_two_files(
        self, traced_run, tmp_path
    ):
        obs, _ = traced_run
        write_snapshot(obs, tmp_path / "snap")
        assert sorted(p.name for p in (tmp_path / "snap").iterdir()) == [
            "metrics.json", "spans.jsonl",
        ]
        spans, metrics = read_snapshot(tmp_path / "snap")
        assert len(spans) == len(obs.tracer.spans())
        assert metrics == obs.metrics.to_dict()


class TestUninstrumentedDefault:
    def test_system_without_instrumentation_records_nothing(self):
        vds = VirtualDataSystem.with_grid(sites={"anl": 1, "uc": 1})
        vds.define(DIAMOND_VDL)
        assert vds.materialize("final").succeeded
        assert vds.obs.enabled is False
        assert len(vds.obs.metrics) == 0


class TestSDSSWorkload:
    """The acceptance shape on a real §6 workload: an instrumented SDSS
    campaign stripe on a four-site grid covers plan → schedule →
    execute → transfer and accounts the wide-area bytes."""

    def test_sdss_stripe_yields_full_span_and_metric_coverage(self):
        from repro.workloads import sdss

        sites = {"anl": 4, "uc": 4, "uw": 4, "ufl": 4}
        obs = Instrumentation()
        vds = VirtualDataSystem.with_grid(
            sites,
            authority="sdss.griphyn.org",
            bandwidth=50e6,
            instrumentation=obs,
        )
        campaign = sdss.define_campaign(
            vds.catalog, fields=8, fields_per_stripe=4
        )
        names = sorted(sites)
        for i, field in enumerate(campaign.field_datasets):
            vds.seed_dataset(field, names[i % 4], sdss.FIELD_BYTES)
        result = vds.materialize(
            campaign.targets[0], reuse="never", pattern="ship-data"
        )
        assert result.succeeded

        assert {
            "vds.materialize",
            "planner.plan",
            "scheduler.run",
            "scheduler.step",
            "grid.transfer",
        } <= obs.tracer.span_names()
        # fields seeded round-robin across four sites + ship-data means
        # the run must move data: the transfer accounting is non-zero.
        assert obs.metrics.get("grid.transfer.bytes").total() > 0
        assert obs.metrics.get("scheduler.steps").total() > 0
        assert obs.metrics.get("catalog.ops").total() > 0
