"""REPL — dynamic replication strategies (§5.2, refs [18,19]).

Reproduces the Ranganathan & Foster replication study the paper's
planner builds on: a hierarchical data grid, skewed and geographically
local access traces, and five placement strategies.

Expected shape (matching [19]): every replication strategy beats no
replication on mean response time under skewed access; strategies that
place copies at/near clients (caching, cascading+caching) beat pure
tier-level cascading; replication buys its speedup with bounded extra
storage (replica counts reported).
"""

import pytest

from benchmarks.replication import (
    HierarchyConfig,
    ReplicationSimulation,
    STRATEGIES,
)

CONFIG = HierarchyConfig(
    tier1_count=4,
    leaves_per_tier1=3,
    file_count=200,
    replication_threshold=5,
)


@pytest.fixture(scope="module")
def results():
    simulation = ReplicationSimulation(CONFIG, seed=7)
    return {r.strategy: r for r in simulation.compare()}


def test_repl_strategy_table(scenario, results, table):
    def run():
        rows = [results[s].row() for s in STRATEGIES]
        table(
            "REPL: replication strategies under skewed access",
            ["strategy", "accesses", "mean response s", "WAN bytes",
             "replicas", "evictions"],
            rows,
        )
        none = results["none"]
        for name in ("caching", "cascading", "best-client", "cascading-caching"):
            assert results[name].mean_response_seconds < none.mean_response_seconds
        # Client-side placement beats tier-level cascading alone.
        assert (
            results["cascading-caching"].mean_response_seconds
            <= results["cascading"].mean_response_seconds
        )
        # Replication saves wide-area bandwidth overall.
        assert (
            results["cascading-caching"].total_wide_area_bytes
            < none.total_wide_area_bytes
        )

    scenario(run)


def test_repl_locality_sensitivity(scenario, table):
    def run():
        """Ablation: the benefit of replication grows with access locality."""
        rows = []
        for locality in (0.0, 0.5, 0.9):
            config = HierarchyConfig(
                tier1_count=4,
                leaves_per_tier1=3,
                file_count=200,
                replication_threshold=5,
                locality=locality,
            )
            simulation = ReplicationSimulation(config, seed=7)
            none = simulation.run("none")
            simulation.network.reset_stats()
            best = simulation.run("cascading-caching")
            speedup = none.mean_response_seconds / best.mean_response_seconds
            rows.append(
                (
                    locality,
                    f"{none.mean_response_seconds:.1f}",
                    f"{best.mean_response_seconds:.1f}",
                    f"{speedup:.2f}x",
                )
            )
        table(
            "REPL: speedup of cascading-caching vs locality",
            ["locality", "none (s)", "casc+cache (s)", "speedup"],
            rows,
        )
        speedups = [float(r[3][:-1]) for r in rows]
        assert speedups[-1] > 1.2  # strong locality -> clear win

    scenario(run)


def test_repl_simulation_throughput(benchmark):
    simulation = ReplicationSimulation(CONFIG, seed=7)
    result = benchmark(lambda: simulation.run("cascading-caching"))
    assert result.accesses == len(simulation.trace)
