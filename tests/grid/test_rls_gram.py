"""Tests for the replica location service and GRAM-like job service."""

import pytest

from repro.errors import SubmissionError, TransferError
from repro.grid.gram import GridExecutionService, JobSpec
from repro.grid.network import uniform_topology
from repro.grid.replica_catalog import ReplicaLocationService
from repro.grid.simulator import Simulator
from repro.grid.site import Site


@pytest.fixture
def net():
    return uniform_topology(["anl", "uc"], bandwidth=10e6, latency=0.05)


@pytest.fixture
def rls(net):
    return ReplicaLocationService(net)


class TestRLS:
    def test_register_and_lookup(self, rls):
        rls.register("f1", "anl", 100)
        assert rls.sites_of("f1") == ["anl"]
        assert rls.has("f1") and rls.has("f1", "anl")
        assert not rls.has("f1", "uc")
        assert rls.size_of("f1") == 100

    def test_unregister(self, rls):
        rls.register("f1", "anl", 100)
        rls.unregister("f1", "anl")
        assert not rls.has("f1")
        with pytest.raises(TransferError):
            rls.unregister("f1", "anl")

    def test_best_source_prefers_destination(self, rls):
        rls.register("f1", "anl", 10_000_000)
        rls.register("f1", "uc", 10_000_000)
        site, seconds = rls.best_source("f1", "uc")
        assert site == "uc"
        assert seconds < 0.1

    def test_best_source_remote(self, rls):
        rls.register("f1", "anl", 10_000_000)
        site, seconds = rls.best_source("f1", "uc")
        assert site == "anl"
        assert seconds == pytest.approx(1.05)

    def test_best_source_missing(self, rls):
        with pytest.raises(TransferError):
            rls.best_source("ghost", "uc")

    def test_counts(self, rls):
        rls.register("f1", "anl", 1)
        rls.register("f1", "uc", 1)
        rls.register("f2", "anl", 1)
        assert rls.replica_count("f1") == 2
        assert rls.total_replicas() == 3
        assert rls.lfns() == ["f1", "f2"]


class TestGram:
    def make_grid(self, net, rls, failure_rate=0.0):
        sim = Simulator()
        sites = {"anl": Site("anl", hosts=2), "uc": Site("uc", hosts=2)}
        grid = GridExecutionService(
            sim, sites, net, rls, failure_rate=failure_rate, seed=11
        )
        return sim, sites, grid

    def test_job_with_staging(self, net, rls):
        sim, sites, grid = self.make_grid(net, rls)
        sites["anl"].storage.store("in.dat", 10_000_000)
        rls.register("in.dat", "anl", 10_000_000)
        record = grid.submit(
            JobSpec(
                name="j",
                site="uc",
                cpu_seconds=5.0,
                inputs=("in.dat",),
                outputs={"out.dat": 1_000_000},
            )
        )
        sim.run()
        assert record.succeeded
        assert record.stage_in_seconds == pytest.approx(1.05)
        assert record.end_time == pytest.approx(6.05)
        assert rls.has("out.dat", "uc")
        assert rls.has("in.dat", "uc")  # staged copy registered
        assert record.bytes_staged == 10_000_000

    def test_no_restaging_when_local(self, net, rls):
        sim, sites, grid = self.make_grid(net, rls)
        sites["uc"].storage.store("in.dat", 10_000_000)
        rls.register("in.dat", "uc", 10_000_000)
        record = grid.submit(
            JobSpec(name="j", site="uc", cpu_seconds=1.0, inputs=("in.dat",))
        )
        sim.run()
        assert record.stage_in_seconds == 0.0
        assert net.total_bytes_moved() == 0

    def test_queueing(self, net, rls):
        sim, _, grid = self.make_grid(net, rls)
        records = [
            grid.submit(JobSpec(name=f"j{i}", site="anl", cpu_seconds=10.0))
            for i in range(4)
        ]
        sim.run()
        ends = sorted(r.end_time for r in records)
        assert ends == [10.0, 10.0, 20.0, 20.0]
        assert records[-1].queue_seconds == 10.0

    def test_missing_input_fails_job(self, net, rls):
        sim, _, grid = self.make_grid(net, rls)
        done = []
        record = grid.submit(
            JobSpec(name="j", site="anl", cpu_seconds=1.0, inputs=("ghost",)),
            on_complete=done.append,
        )
        sim.run()
        assert record.status == "failed"
        assert "ghost" in record.error
        assert done == [record]

    def test_unknown_site_rejected(self, net, rls):
        _, _, grid = self.make_grid(net, rls)
        with pytest.raises(SubmissionError):
            grid.submit(JobSpec(name="j", site="mars", cpu_seconds=1.0))

    def test_failure_injection_deterministic(self, net, rls):
        sim, _, grid = self.make_grid(net, rls, failure_rate=0.5)
        records = [
            grid.submit(JobSpec(name=f"j{i}", site="anl", cpu_seconds=1.0))
            for i in range(30)
        ]
        sim.run()
        failures = sum(1 for r in records if not r.succeeded)
        assert 5 < failures < 25  # roughly half, seeded
        assert grid.failed() and grid.completed()

    def test_completion_callback_and_metrics(self, net, rls):
        sim, _, grid = self.make_grid(net, rls)
        seen = []
        grid.submit(
            JobSpec(name="j", site="anl", cpu_seconds=3.0),
            on_complete=lambda r: seen.append(r.status),
        )
        sim.run()
        assert seen == ["done"]
        assert grid.mean_response_time() == pytest.approx(3.0)

    def test_invalid_failure_rate(self, net, rls):
        sim = Simulator()
        with pytest.raises(SubmissionError):
            GridExecutionService(
                sim, {}, net, rls, failure_rate=1.5
            )

