"""``--check A.json B.json``: is B no worse than A, row by row?

A row is one (end-to-end metric, workload) pair.  B's value may be
worse than A's by at most the metric's bound.  Where the spread between
the repetitions of either side is wider than the bound the row is
``unresolved`` rather than ``ok`` — unless every repetition of B reads
better than every repetition of A.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from benchmarks.pipeline import metrics

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    delta = b - a if better == "lower" else a - b
    return delta / abs(a) if a else 0.0


def _spread(row: dict[str, Any]) -> float:
    value = abs(row["value"])
    return (row["q3"] - row["q1"]) / value if value else 0.0


def classify(a: dict[str, Any], b: dict[str, Any], better: str,
             bound: float) -> str:
    """Status of one row given A's and B's result rows."""
    sign = 1.0 if better == "lower" else -1.0
    a_reps = [sign * v for v in a["reps"]]
    b_reps = [sign * v for v in b["reps"]]
    worse = _worse_by(a["value"], b["value"], better)
    if max(b_reps) < min(a_reps):
        return OK
    if min(b_reps) > max(a_reps) and worse > bound:
        return REGRESSED
    if max(_spread(a), _spread(b)) > bound:
        return UNRESOLVED
    return REGRESSED if worse > bound else OK


def load(path: Path) -> dict[str, dict[str, Any]]:
    """A result file as {workload: result}; accepts one workload's
    ``--out`` file or the ledger's."""
    doc = json.loads(path.read_text())
    return {doc["workload"]: doc} if "workload" in doc else doc


def compare(a_set: dict, b_set: dict) -> list[tuple]:
    """Rows of (workload, metric, a value, b value, worse_by, bound,
    status) for every metric both sides report and a bound exists for."""
    table = metrics.bounds()
    rows = []
    for workload in a_set:
        if workload not in b_set:
            continue
        a_res, b_res = a_set[workload], b_set[workload]
        for name, a_row in a_res["end_to_end"].items():
            b_row = b_res["end_to_end"].get(name)
            if b_row is None or name not in table:
                continue
            better, bound = table[name]
            rows.append((
                workload, name, a_row["value"], b_row["value"],
                _worse_by(a_row["value"], b_row["value"], better), bound,
                classify(a_row, b_row, better, bound),
            ))
        if a_res["seed"] != b_res["seed"]:
            continue
        # Same seed: simulated time, seeded draws and diagnostics must
        # repeat exactly.
        for name, a_count in a_res["counts"].items():
            b_count = b_res["counts"].get(name)
            same = a_count == b_count
            rows.append((
                workload, name, a_count, b_count, 0.0 if same else 1.0, 0.0,
                OK if same else REGRESSED,
            ))
    return rows


def main(a_path: Path, b_path: Path) -> int:
    rows = compare(load(a_path), load(b_path))
    if not rows:
        print("no comparable rows")
        return 2
    print(f"{'workload':16s} {'metric':28s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  status")
    for workload, name, a, b, worse, bound, status in rows:
        print(f"{workload:16s} {name:28s} {a:>12.6g} {b:>12.6g} "
              f"{worse:>+9.1%} {bound:>6.0%}  {status}")
    tally = {s: sum(r[-1] == s for r in rows) for s in (OK, REGRESSED, UNRESOLVED)}
    print(", ".join(f"{count} {status}" for status, count in tally.items()))
    return 1 if tally[REGRESSED] else 0
