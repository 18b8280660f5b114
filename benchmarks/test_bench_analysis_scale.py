"""ANSCALE — whole-graph dataflow analysis at 10^5 nodes.

The incremental analyzer's contract is that *queries pay for the dirty
cone, not the graph*: a 10^5-node canonical workload must cold-solve
all four shipped analyses within the smoke budget, and a re-query
after a single derivation mutation must be >= 50x faster than the cold
run (it re-solves only the mutation's influence cone).

Writes ``BENCH_ANALYSIS_SCALE.json`` at the repo root;
``check_bench_trajectory.py`` guards the committed baseline.  Set
``BENCH_SMOKE=1`` (CI) to relax the speedup assertion — the smoke run
still covers the full 10^5-node graph.
"""

import os
import time
from collections import Counter
from pathlib import Path

from repro.analysis.incremental import IncrementalAnalyzer
from repro.catalog.memory import MemoryCatalog
from repro.core.derivation import DatasetArg, Derivation
from repro.durability.atomic import atomic_write_json
from repro.core.naming import VDPRef
from repro.core.replica import Replica
from repro.workloads import canonical

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
NODES = 100_000
#: One replica per this many datasets gives the passes real material
#: (staleness targets, GC candidates) without dominating generation.
REPLICA_STRIDE = 16
MUTATIONS = 3
#: What the cold solve finds on this graph, per code.  The sparse full
#: solve seeds and reports only nodes whose fact or report can leave
#: bottom; a seed set that misses one drops a finding here.
EXPECTED_DIAGNOSTICS = {"VDG611": 123}
RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_ANALYSIS_SCALE.json"
)


def _mutate_derivation(catalog, name, round_no):
    """Redefine one derivation in place (a changed ``tag`` actual)."""
    dv = catalog.get_derivation(name)
    actuals = dict(dv.actuals)
    actuals["tag"] = f"mut-{round_no}"
    catalog.add_derivation(
        Derivation(
            name=dv.name,
            transformation=VDPRef.parse(
                dv.transformation.vdl_text(),
                default_kind="transformation",
            ),
            actuals={
                formal: value
                if isinstance(value, str)
                else DatasetArg(
                    dataset=value.dataset, direction=value.direction
                )
                for formal, value in actuals.items()
            },
        ),
        replace=True,
        validate=False,
        auto_declare=False,
    )


def test_anscale_incremental_vs_cold(scenario, table):
    def run():
        catalog = MemoryCatalog()
        t0 = time.perf_counter()
        graph = canonical.generate_graph(
            catalog, nodes=NODES, layers=40, seed=7
        )
        with catalog.bulk():
            for i, lfn in enumerate(graph.all_datasets):
                if i % REPLICA_STRIDE == 0:
                    catalog.add_replica(
                        Replica(
                            dataset_name=lfn,
                            location="bench-site",
                            replica_id=f"rep-{i:07d}",
                        )
                    )
        generate_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        analyzer = IncrementalAnalyzer(catalog)
        build_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cold_diags = analyzer.diagnostics()
        full_s = time.perf_counter() - t0

        incremental_s = 0.0
        for round_no in range(MUTATIONS):
            target = graph.derivations[
                (NODES // 2) + round_no * 101
            ]
            _mutate_derivation(catalog, target, round_no)
            t0 = time.perf_counter()
            analyzer.diagnostics()
            incremental_s += time.perf_counter() - t0
        incremental_s /= MUTATIONS
        speedup = full_s / incremental_s if incremental_s else float("inf")

        results = {
            "smoke": SMOKE,
            "nodes": NODES,
            "graph_nodes": analyzer.stats()["nodes"],
            "generate_s": generate_s,
            "build_s": build_s,
            "full_s": full_s,
            "incremental_s": incremental_s,
            "speedup": speedup,
            "diagnostics": len(cold_diags),
            "diagnostics_by_code": dict(
                sorted(Counter(d.code for d in cold_diags).items())
            ),
        }
        table(
            "ANSCALE: full vs single-mutation incremental analysis",
            ["nodes", "build s", "full s", "incr s", "speedup"],
            [
                (
                    NODES,
                    f"{build_s:.2f}",
                    f"{full_s:.2f}",
                    f"{incremental_s:.4f}",
                    f"{speedup:.0f}x",
                )
            ],
        )
        atomic_write_json(RESULT_PATH, results)
        analyzer.close()
        assert results["diagnostics_by_code"] == EXPECTED_DIAGNOSTICS
        assert len(cold_diags) == sum(EXPECTED_DIAGNOSTICS.values())
        # The incremental query must beat the cold solve handily even
        # on loaded CI hosts; the full 50x acceptance floor is enforced
        # on unloaded baseline runs and by check_bench_trajectory.py.
        assert speedup >= (10.0 if SMOKE else 50.0)
        return results

    scenario(run)
