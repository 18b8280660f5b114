"""Tests for grid execution with provenance write-back."""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.errors import ExecutionError
from repro.executor.grid_executor import GridExecutor
from repro.grid.gram import GridExecutionService
from repro.grid.network import uniform_topology
from repro.grid.replica_catalog import ReplicaLocationService
from repro.grid.simulator import Simulator
from repro.grid.site import Site
from repro.planner.request import MaterializationRequest
from repro.planner.strategies import SiteSelector
from tests.conftest import DIAMOND_VDL


@pytest.fixture
def world():
    catalog = MemoryCatalog().define(DIAMOND_VDL)
    for name in ("gen", "sim", "ana"):
        tr = catalog.get_transformation(name)
        tr.attributes.set("cost.cpu_seconds", 10.0)
        tr.attributes.set("cost.output_bytes", 1_000_000)
        catalog.add_transformation(tr, replace=True)
    sim = Simulator()
    net = uniform_topology(["a", "b"])
    sites = {"a": Site("a", hosts=4), "b": Site("b", hosts=4)}
    rls = ReplicaLocationService(net)
    grid = GridExecutionService(sim, sites, net, rls)
    executor = GridExecutor(catalog, grid, SiteSelector(sites, net, rls))
    return catalog, executor, rls, sim


class TestMaterialize:
    def test_end_to_end(self, world):
        catalog, executor, rls, _ = world
        result = executor.materialize(
            MaterializationRequest(targets=("final",), reuse="never")
        )
        assert result.succeeded
        assert rls.has("final")

    def test_invocations_recorded_with_site_identity(self, world):
        catalog, executor, _, _ = world
        executor.materialize(
            MaterializationRequest(targets=("final",), reuse="never")
        )
        invs = catalog.invocations_of("a1")
        assert len(invs) == 1
        assert invs[0].context.site in ("a", "b")
        assert invs[0].context.host
        assert invs[0].usage.cpu_seconds == 10.0

    def test_replicas_recorded(self, world):
        catalog, executor, _, _ = world
        executor.materialize(
            MaterializationRequest(targets=("final",), reuse="never")
        )
        replicas = catalog.replicas_of("final")
        assert len(replicas) == 1
        assert replicas[0].size == 1_000_000
        inv = catalog.invocations_of("a1")[0]
        assert inv.replica_bindings["o"] == replicas[0].replica_id

    def test_cost_reuse_avoids_recompute(self, world):
        catalog, executor, rls, _ = world
        executor.materialize(
            MaterializationRequest(targets=("sim1",), reuse="never")
        )
        plan = executor.plan(
            MaterializationRequest(targets=("final",), reuse="cost")
        )
        # sim1 replica exists: transferring 1 MB beats 20 s recompute.
        assert "sim1" in plan.reused
        assert "s1" not in plan.steps
        result = executor.run(plan)
        assert result.succeeded
        assert rls.has("final")

    def test_estimator_learns_across_runs(self, world):
        catalog, executor, _, _ = world
        executor.materialize(
            MaterializationRequest(targets=("sim1",), reuse="never")
        )
        executor.estimator.refit()
        assert executor.estimator.confidence("gen") == 1

    def test_failure_raises(self, world):
        catalog, executor, _, _ = world
        executor.grid.failure_rate = 0.95
        executor.max_retries = 0
        with pytest.raises(ExecutionError):
            executor.materialize(
                MaterializationRequest(targets=("final",), reuse="never")
            )

    def test_provenance_recording_optional(self, world):
        catalog, executor, _, _ = world
        executor.record_provenance = False
        executor.materialize(
            MaterializationRequest(targets=("sim1",), reuse="never")
        )
        assert catalog.invocations_of("s1") == []
