"""Tests for cost models and whole-workflow estimation (§5.3)."""

import pytest

from repro.core.dataset import Dataset
from repro.core.invocation import Invocation, ResourceUsage
from repro.errors import EstimationError
from repro.estimator.cost import (
    Estimator,
    FALLBACK_CPU_SECONDS,
    fit_model,
)
from repro.estimator.workflow import estimate_plan, sweep_hosts
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest


def invocation(dv_name, cpu, bytes_read=0, bytes_written=0, status="success"):
    return Invocation(
        derivation_name=dv_name,
        status=status,
        usage=ResourceUsage(
            cpu_seconds=cpu,
            wall_seconds=cpu,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
        ),
    )


class TestFitModel:
    def test_no_history_fallback(self):
        model = fit_model("t", [])
        assert not model.is_fitted
        assert model.predict_cpu_seconds() == FALLBACK_CPU_SECONDS

    def test_constant_inputs_mean(self):
        invs = [invocation("d", cpu) for cpu in (10.0, 20.0, 30.0)]
        model = fit_model("t", invs)
        assert model.predict_cpu_seconds() == pytest.approx(20.0)
        assert model.samples == 3

    def test_linear_scaling_recovered(self):
        # cpu = 2 + 1e-6 * bytes
        invs = [
            invocation("d", 2 + 1e-6 * b, bytes_read=b)
            for b in (1_000_000, 2_000_000, 4_000_000)
        ]
        model = fit_model("t", invs)
        assert model.predict_cpu_seconds(3_000_000) == pytest.approx(5.0, rel=1e-3)
        assert model.per_byte == pytest.approx(1e-6, rel=1e-3)

    def test_failed_runs_excluded(self):
        invs = [invocation("d", 10.0), invocation("d", 99999.0, status="failure")]
        model = fit_model("t", invs)
        assert model.predict_cpu_seconds() == pytest.approx(10.0)

    def test_negative_slope_clamped(self):
        invs = [
            invocation("d", 100.0, bytes_read=1),
            invocation("d", 1.0, bytes_read=1_000_000),
        ]
        model = fit_model("t", invs)
        assert model.per_byte == 0.0
        assert model.predict_cpu_seconds(10**9) == pytest.approx(50.5)

    def test_output_size_mean(self):
        invs = [
            invocation("d", 1.0, bytes_written=100),
            invocation("d", 1.0, bytes_written=300),
        ]
        assert fit_model("t", invs).predict_output_bytes() == 200


class TestEstimator:
    def test_learns_from_catalog_history(self, diamond_catalog):
        for cpu in (5.0, 15.0):
            diamond_catalog.add_invocation(invocation("s1", cpu))
        estimator = Estimator(diamond_catalog)
        model = estimator.model_for("sim")
        assert model.is_fitted
        assert model.predict_cpu_seconds() == pytest.approx(10.0)
        assert estimator.confidence("sim") == 2

    def test_declared_hints_when_no_history(self, diamond_catalog):
        tr = diamond_catalog.get_transformation("ana")
        tr.attributes.set("cost.cpu_seconds", 42.0)
        tr.attributes.set("cost.output_bytes", 777)
        diamond_catalog.add_transformation(tr, replace=True)
        estimator = Estimator(diamond_catalog)
        model = estimator.model_for("ana")
        assert model.predict_cpu_seconds() == 42.0
        assert model.predict_output_bytes() == 777

    def test_estimate_derivation_uses_input_sizes(self, diamond_catalog):
        diamond_catalog.add_dataset(
            Dataset(name="sim1", attributes={"size": 1_000_000}),
            replace=True,
        )
        diamond_catalog.add_dataset(
            Dataset(name="sim2", attributes={"size": 2_000_000}),
            replace=True,
        )
        for b, cpu in ((1_000_000, 2.0), (3_000_000, 4.0)):
            diamond_catalog.add_invocation(
                invocation("a1", cpu, bytes_read=b)
            )
        estimator = Estimator(diamond_catalog)
        dv = diamond_catalog.get_derivation("a1")
        # inputs total 3 MB -> predicted 4 s (linear fit)
        assert estimator.estimate_derivation(dv) == pytest.approx(4.0)

    def test_estimate_output_bytes_prefers_declared(self, diamond_catalog):
        diamond_catalog.add_dataset(
            Dataset(name="final", attributes={"size": 123}), replace=True
        )
        estimator = Estimator(diamond_catalog)
        dv = diamond_catalog.get_derivation("a1")
        assert estimator.estimate_output_bytes(dv, "final") == 123

    def test_refit(self, diamond_catalog):
        estimator = Estimator(diamond_catalog)
        assert not estimator.model_for("gen").is_fitted
        diamond_catalog.add_invocation(invocation("g1", 7.0))
        estimator.refit()
        assert estimator.model_for("gen").is_fitted


class TestWorkflowEstimate:
    def make_plan(self, diamond_catalog, cpu=10.0):
        planner = Planner(diamond_catalog, cpu_estimate=lambda dv: cpu)
        return planner.plan(
            MaterializationRequest(targets=("final",), reuse="never")
        )

    def test_critical_path(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        estimate = estimate_plan(plan, host_count=100)
        assert estimate.critical_path_seconds == pytest.approx(30.0)
        assert estimate.makespan_seconds == pytest.approx(30.0)

    def test_single_host_serializes(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        estimate = estimate_plan(plan, host_count=1)
        assert estimate.makespan_seconds == pytest.approx(50.0)

    def test_two_hosts_in_between(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        estimate = estimate_plan(plan, host_count=2)
        assert 30.0 <= estimate.makespan_seconds <= 50.0

    def test_transfer_costs_included(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        with_data = estimate_plan(
            plan,
            host_count=4,
            input_bytes={"raw1": 100_000_000},
            bandwidth=10e6,
        )
        without = estimate_plan(plan, host_count=4)
        assert (
            with_data.makespan_seconds
            >= without.makespan_seconds + 9.9
        )
        assert with_data.total_transfer_seconds >= 10.0

    def test_empty_plan(self, diamond_catalog):
        from repro.planner.dag import Plan

        estimate = estimate_plan(Plan(targets=("x",)), host_count=2)
        assert estimate.makespan_seconds == 0.0
        assert estimate.step_count == 0

    def test_invalid_host_count(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        with pytest.raises(EstimationError):
            estimate_plan(plan, host_count=0)

    def test_deadline_query(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        estimate = estimate_plan(plan, host_count=2)
        assert estimate.meets_deadline(1_000.0)
        assert not estimate.meets_deadline(10.0)

    def test_sweep_monotone(self, diamond_catalog):
        plan = self.make_plan(diamond_catalog)
        sweep = sweep_hosts(plan, [1, 2, 4, 8])
        makespans = [sweep[n].makespan_seconds for n in (1, 2, 4, 8)]
        assert makespans == sorted(makespans, reverse=True)
        # Saturates at the critical path.
        assert sweep[8].makespan_seconds == pytest.approx(30.0)


class TestFitSamples:
    """The raw-sample fitting core shared with training on run records."""

    def test_matches_fit_model(self):
        from repro.estimator.cost import fit_samples

        invs = [
            invocation("d", 2 + 1e-6 * b, bytes_read=b)
            for b in (1_000_000, 2_000_000, 4_000_000)
        ]
        via_invocations = fit_model("t", invs)
        via_samples = fit_samples(
            "t", [(b, 2 + 1e-6 * b, 0) for b in (1e6, 2e6, 4e6)]
        )
        assert via_samples.per_byte == pytest.approx(
            via_invocations.per_byte
        )
        assert via_samples.intercept == pytest.approx(
            via_invocations.intercept
        )

    def test_empty_is_unfitted(self):
        from repro.estimator.cost import fit_samples

        assert not fit_samples("t", []).is_fitted

    def test_train_on_history_pools_all_runs(self, tmp_path):
        from repro.estimator.cost import Estimator
        from repro.observability.recorder import load_runs
        from tests.observability.test_history import write_run

        # Two runs of the same chain at different speeds: the model
        # must be fit over the pooled samples, not the latest run.
        write_run(tmp_path, "run-a", gen_seconds=4.0)
        write_run(tmp_path, "run-b", gen_seconds=8.0)
        estimator = Estimator(catalog=None)
        trained = estimator.train_on_history(load_runs(tmp_path))
        assert set(trained) == {"gen", "proc"}
        gen = trained["gen"]
        assert gen.samples == 2
        # Identical bytes_read both runs: constant-input mean.
        assert gen.predict_cpu_seconds(100) == pytest.approx(6.0)
        assert estimator.model_for("gen") is gen
