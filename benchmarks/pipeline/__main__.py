"""``python -m benchmarks.pipeline`` — run the ledger or compare two.

* ``--workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process and ends with the driver's one-line JSON
  (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
* Without ``--workload`` every workload runs in a fresh child process;
  ``--out FILE`` keeps the full result set for ``--check``.
* ``--check A.json B.json`` compares two result sets row by row.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MODULE = "benchmarks.pipeline"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog=f"python -m {MODULE}")
    parser.add_argument("--workload", help="measure only this workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float,
        help="time budget of one run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: alternate untraced and traced repetitions and report "
        "the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="write the full results here")
    parser.add_argument(
        "--check", nargs=2, type=Path, metavar=("A.json", "B.json"),
        help="compare two result sets against the bounds",
    )
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    from benchmarks.pipeline import harness, metrics, report
    from benchmarks.pipeline.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    seconds = args.seconds or metrics.load_contract()["run_seconds"]
    workload, warmup = WORKLOADS[args.workload]
    run = harness.run_workload(
        workload, warmup, args.seed, seconds, trace=bool(args.trace)
    )
    result = report.assemble(workload, args.seed, run)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report.print_result(result)
    print(report.contract_line(
        result, "per_layer" if args.trace else "end_to_end"
    ))
    return 1 if result["failures"] else 0


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child, so peak RSS, GC state and set
    order are per workload."""
    from benchmarks.pipeline import harness
    from benchmarks.pipeline.workloads import WORKLOADS

    scratch = harness.WORK_ROOT / f"ledger-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    results = {}
    status = 0
    try:
        for name in WORKLOADS:
            part = scratch / f"{name}.json"
            command = [
                sys.executable, "-m", MODULE, "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace),
                "--out", str(part),
            ]
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(command, cwd=ROOT, check=False)
            status = status or done.returncode
            if part.exists():
                results[name] = json.loads(part.read_text())
    finally:
        for leftover in scratch.iterdir():
            leftover.unlink()
        scratch.rmdir()
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    failed = sum(r["failed"] for r in results.values())
    print(f"== ledger: {len(results)} workloads, failed ops {failed} ==")
    return status or (1 if len(results) < len(WORKLOADS) else 0)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.check:
        from benchmarks.pipeline.check import main as check_main

        return check_main(*args.check)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set order feeds plan order; pin it so counts repeat exactly.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", MODULE, *argv])
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    # Measure this checkout's sources, never an installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{MODULE}: no src/repro beside it; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
