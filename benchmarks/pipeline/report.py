"""From one process's measurements to a result, and its output."""

from __future__ import annotations

import json
from typing import Any

from benchmarks.pipeline import metrics
from benchmarks.pipeline.harness import Measured, peak_rss_mb, summarize

#: The traced run fails when more than this share of its wall time lies
#: under no layer span.
MAX_UNATTRIBUTED = 0.15


def assemble(workload: Any, seed: int, run: Measured) -> dict[str, Any]:
    """One workload's result: every metric with its per-repetition
    values and quartiles, the machine, the gates' verdict."""
    plain, traced = run.plain, run.traced
    reps = plain + traced
    failures = [msg for rep in reps for msg in rep.failures]
    # Counts that must repeat exactly do so across every repetition,
    # traced or not.
    for name in metrics.EXACT_COUNTS:
        seen = {rep.counts[name] for rep in reps if name in rep.counts}
        if len(seen) > 1:
            failures.append(f"{name} differs between repetitions: {sorted(seen)}")
    end_to_end = {
        "setup_s": summarize([rep.setup_s for rep in plain]),
        "wall_s": summarize([rep.wall_s for rep in plain]),
        "peak_rss_mb": summarize([peak_rss_mb()]),
    }
    end_to_end.update(workload.metrics(plain))
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "machine": run.machine,
        "repetitions": len(plain),
        "end_to_end": end_to_end,
        "phases_s": {
            name: summarize([rep.phases[name] for rep in plain])
            for name in plain[0].phases
        },
        "counts": {
            name: plain[0].counts[name]
            for name in metrics.EXACT_COUNTS
            if name in plain[0].counts
        },
    }
    if traced:
        rows = metrics.per_layer_rows(run)
        result["traced_repetitions"] = len(traced)
        result["per_layer"] = rows
        share = rows["unattributed_s"]["value"] / rows["trace.wall_s"]["value"]
        if share > MAX_UNATTRIBUTED:
            failures.append(
                f"{share:.0%} of the traced wall time is under no layer span"
            )
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.ops for rep in reps if rep.failures)
    if failures and not failed:
        failed = attempted  # a gate across repetitions failed
    result.update(attempted=attempted, failed=failed, failures=failures[:20])
    return result


def print_result(result: dict[str, Any]) -> None:
    """Every metric of one workload's result by name and unit."""
    machine = result["machine"]
    print(
        f"== {result['workload']} (seed {result['seed']}, "
        f"{result['repetitions']} repetitions, {machine['cores']} cores, "
        f"Python {machine['python']}, {machine['tmp_filesystem']}, "
        f"load {machine['loadavg_at_start'][0]:.2f}) =="
    )
    for section in ("end_to_end", "per_layer"):
        for name, row in result.get(section, {}).items():
            spread = ""
            if len(row["reps"]) > 1:
                spread = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]"
            count = f"  n={row['n']}" if "n" in row else ""
            print(
                f"{name:42s} {row['value']:>14.6g} {metrics.UNITS[name]:8s}"
                f"{spread}{count}"
            )
    print(
        f"{'ops attempted / failed':42s} {result['attempted']} / "
        f"{result['failed']}"
    )
    for message in result["failures"]:
        print(f"FAILED: {message}")


def contract_line(result: dict[str, Any], section: str) -> str:
    """The driver's last-line JSON: the metrics ``BENCHMARK.json`` lists
    under ``section``."""
    rows = result[section]
    return json.dumps(
        {
            "correct": not result["failures"],
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": {
                listed["name"]: {
                    "value": rows[listed["name"]]["value"],
                    "unit": listed["unit"],
                }
                for listed in metrics.load_contract()[section]
            },
        }
    )
