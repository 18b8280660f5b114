"""Tests for dynamic replication strategies (refs [18,19])."""

import pytest

from repro.errors import PlanningError
from benchmarks.replication import (
    HierarchyConfig,
    ReplicationSimulation,
    STRATEGIES,
)


@pytest.fixture(scope="module")
def simulation():
    return ReplicationSimulation(
        HierarchyConfig(tier1_count=3, leaves_per_tier1=2, file_count=60),
        seed=13,
    )


@pytest.fixture(scope="module")
def results(simulation):
    return {r.strategy: r for r in simulation.compare()}


class TestSetup:
    def test_hierarchy_shape(self, simulation):
        assert len(simulation.tier1) == 3
        assert len(simulation.leaves) == 6
        assert simulation.parent["leaf-0-0"] == "tier1-0"
        assert simulation.parent["tier1-0"] == "tier0"
        assert simulation.path_to_root("leaf-2-1") == [
            "leaf-2-1", "tier1-2", "tier0",
        ]

    def test_trace_deterministic(self):
        config = HierarchyConfig(tier1_count=2, leaves_per_tier1=2,
                                 file_count=20)
        a = ReplicationSimulation(config, seed=5).trace
        b = ReplicationSimulation(config, seed=5).trace
        assert a == b
        c = ReplicationSimulation(config, seed=6).trace
        assert a != c

    def test_trace_covers_all_leaves(self, simulation):
        clients = {client for client, _ in simulation.trace}
        assert clients == set(simulation.leaves)


class TestStrategies:
    def test_unknown_strategy_rejected(self, simulation):
        with pytest.raises(PlanningError):
            simulation.run("quantum")

    def test_all_strategies_complete(self, results):
        assert set(results) == set(STRATEGIES)
        for result in results.values():
            assert result.accesses == len(results["none"].accesses * [0]) or result.accesses > 0

    def test_none_creates_no_replicas(self, results):
        assert results["none"].replicas_created == 0

    def test_caching_reduces_response_time(self, results):
        assert (
            results["caching"].mean_response_seconds
            < results["none"].mean_response_seconds
        )

    def test_cascading_reduces_response_time(self, results):
        assert (
            results["cascading"].mean_response_seconds
            < results["none"].mean_response_seconds
        )

    def test_best_client_reduces_response_time(self, results):
        assert (
            results["best-client"].mean_response_seconds
            < results["none"].mean_response_seconds
        )

    def test_combined_beats_plain_cascading(self, results):
        """[19]'s headline: cascading+caching is the best performer."""
        assert (
            results["cascading-caching"].mean_response_seconds
            <= results["cascading"].mean_response_seconds
        )

    def test_replication_saves_wide_area_bandwidth(self, results):
        assert (
            results["cascading-caching"].total_wide_area_bytes
            < results["none"].total_wide_area_bytes
        )

    def test_rows_render(self, results):
        row = results["none"].row()
        assert row[0] == "none"
        assert len(row) == 6
