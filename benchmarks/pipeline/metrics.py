"""The ledger's metric tables: names, units, directions, bounds.

``BENCHMARK.json`` lists the end-to-end metrics every workload reports
(the driver compares each of its metrics on each workload) and the
per-layer metrics.  The workload-specific end-to-end metrics live only
here; ``--check`` applies the bounds of both.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Any

from benchmarks.pipeline.harness import ROOT, Measured, summarize


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the baseline median it may worsen by
    workloads: tuple[str, ...]
    definition: str


ALL = ("campaign-cold", "plan-scale", "reuse-session", "dispatch-loops")

# Bounds follow the noise of the two-core reference box: between ten runs
# on ten seeds wall_s spread by 3-11 % of its median and the throughputs
# by 4-12 %, so a 10 % bound would reject the benchmark against itself.

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, ALL,
           "median untimed preparation per repetition: free the previous "
           "repetition's state, make the temp dir, build the inputs"),
    Metric("wall_s", "s", "lower", 0.25, ALL,
           "median timed region of one repetition; the parts sum to it"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, ALL,
           "ru_maxrss of the workload's process at exit"),
    Metric("define_per_s", "DV/s", "higher", 0.20, ("campaign-cold",),
           "derivations / time of catalog.define(vdl_text)"),
    Metric("steps_per_s", "steps/s", "higher", 0.20, ("campaign-cold",),
           "invocations committed / materialize phase time"),
    Metric("store_nodes_per_s", "nodes/s", "higher", 0.20, ("plan-scale",),
           "nodes / generate_graph time"),
    Metric("plan_steps_per_s", "steps/s", "higher", 0.20, ("plan-scale",),
           "plan steps / cold plan() time"),
    Metric("replan_p50_ms", "ms", "lower", 0.20, ("plan-scale",),
           "replan after one mutation"),
    Metric("analyze_cold_s", "s", "lower", 0.20, ("plan-scale",),
           "first whole-graph diagnostics()"),
    Metric("reuse_p50_ms", "ms", "lower", 0.20, ("reuse-session",),
           "materialize of an existing sink"),
    Metric("reuse_p95_ms", "ms", "lower", 0.25, ("reuse-session",),
           "materialize of an existing sink"),
    Metric("lineage_p50_ms", "ms", "lower", 0.20, ("reuse-session",),
           "lineage_report of a random dataset"),
    Metric("rederive_p50_ms", "ms", "lower", 0.20, ("reuse-session",),
           "redefine, ask staleness, re-materialize one dataset"),
    Metric("thread_steps_per_s", "steps/s", "higher", 0.20,
           ("dispatch-loops",), "plan steps / wall time of the thread leg"),
    Metric("process_steps_per_s", "steps/s", "higher", 0.20,
           ("dispatch-loops",), "plan steps / wall time of the process leg"),
    Metric("grid_steps_per_s", "steps/s", "higher", 0.20,
           ("dispatch-loops",), "plan steps / wall time of the grid leg"),
)

#: Span name -> which of its figures the ledger reports.
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "vdl.parse": ("busy_s", "calls"),
    "vdl.analyze": ("busy_s",),
    "catalog.define": ("busy_s",),
    "catalog.add_derivation": ("busy_s", "calls"),
    "catalog.add_dataset": ("busy_s",),
    "catalog.commit": ("busy_s", "calls"),
    "catalog.add_replica": ("busy_s",),
    "catalog.add_invocation": ("busy_s",),
    "catalog.read": ("busy_s", "calls"),
    "catalog.find_datasets": ("busy_s",),
    "catalog.open": ("busy_s",),
    "provenance.graph_build": ("busy_s",),
    "provenance.lineage": ("busy_s", "calls"),
    "planner.plan_cold": ("busy_s",),
    "planner.replan": ("busy_s",),
    "planner.frontier": ("busy_s", "calls"),
    "planner.topo": ("busy_s",),
    "planner.scheduler": ("busy_s",),
    "planner.select_site": ("busy_s", "calls"),
    "estimator.estimate": ("busy_s", "calls"),
    "executor.materialize": ("busy_s",),
    "executor.execute": ("busy_s", "calls"),
    "executor.body": ("busy_s",),
    "grid.submit": ("busy_s", "calls"),
    "grid.sim_run": ("busy_s",),
    "resilience.inject": ("busy_s",),
    "durability.journal": ("busy_s",),
    "durability.digest": ("busy_s",),
    "durability.fsck": ("busy_s",),
    "analysis.cold": ("busy_s",),
    "analysis.incremental": ("busy_s", "calls"),
    "observability.record": ("busy_s",),
    "observability.slack": ("busy_s",),
}

#: Per-layer figures that do not come from spans: (name, unit, better).
LAYER_OTHER: tuple[tuple[str, str, str], ...] = (
    ("catalog.cache.hit_ratio", "ratio", "higher"),
    ("catalog.index.hit_ratio", "ratio", "higher"),
    ("provenance.graphcache.hit_ratio", "ratio", "higher"),
    ("planner.plan_cache.hit_ratio", "ratio", "higher"),
    ("executor.sequential.overhead_us_per_step", "us", "lower"),
    ("executor.thread.overhead_us_per_step", "us", "lower"),
    ("executor.process.overhead_us_per_step", "us", "lower"),
    ("grid.sim_events.calls", "count", "lower"),
    ("grid.sim_makespan_s", "s", "lower"),
    ("resilience.retries.calls", "count", "lower"),
    ("durability.journal.commits", "count", "lower"),
    ("durability.digest.bytes", "bytes", "lower"),
    ("durability.fsck.findings", "count", "lower"),
    ("analysis.diagnostics.count", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Counts a workload reads off public results that must be identical in
#: every repetition of a seed (simulated time, seeded draws, diagnostics).
EXACT_COUNTS = (
    "grid.sim_makespan_s",
    "grid.sim_events.calls",
    "resilience.retries.calls",
    "durability.fsck.findings",
    "analysis.diagnostics.count",
)


def per_layer_spec() -> list[dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    spec = []
    for span, figures in LAYER_SPANS.items():
        for figure in figures:
            spec.append({
                "name": f"{span}.{figure}",
                "unit": "s" if figure == "busy_s" else "count",
                "better": "lower",
            })
    spec.extend(
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in LAYER_OTHER
    )
    return spec


UNITS: dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS["discover_p50_ms"] = "ms"
UNITS["reopen_s"] = "s"
UNITS.update({row["name"]: row["unit"] for row in per_layer_spec()})


def per_layer_rows(run: Measured) -> dict[str, dict[str, Any]]:
    """Every per-layer metric as a median over the traced repetitions.

    A layer the workload never enters reports 0.
    """
    plain, traced = run.plain, run.traced
    layer_rows, counter_rows = run.layer_rows, run.counter_rows
    rows: dict[str, dict[str, Any]] = {}
    for span, figures in LAYER_SPANS.items():
        for figure in figures:
            index = 0 if figure == "busy_s" else 1
            rows[f"{span}.{figure}"] = summarize(
                [float(row.get(span, (0.0, 0))[index]) for row in layer_rows]
            )
    for name, _unit, _better in LAYER_OTHER:
        rows[name] = summarize(
            [float(rep.counts.get(name, 0.0)) for rep in traced]
        )
    for name in ("durability.journal.commits", "durability.digest.bytes"):
        rows[name] = summarize(
            [float(row.get(name, 0.0)) for row in counter_rows]
        )
    rows["unattributed_s"] = summarize(
        [row.get("bench", (0.0, 0))[0] for row in layer_rows]
    )
    rows["trace.wall_s"] = summarize([rep.wall_s for rep in traced])
    untraced = statistics.median(rep.wall_s for rep in plain)
    rows["trace.overhead_pct"] = summarize(
        [(rep.wall_s / untraced - 1.0) * 100.0 for rep in traced]
    )
    return rows


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds() -> dict[str, tuple[str, float]]:
    """Metric name -> (better, bound); ``BENCHMARK.json`` wins where it
    lists the metric."""
    table = {m.name: (m.better, m.bound) for m in END_TO_END}
    for row in load_contract()["end_to_end"]:
        table[row["name"]] = (row["better"], row["bound"])
    return table
