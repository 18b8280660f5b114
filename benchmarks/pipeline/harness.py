"""Run protocol, clocks and statistics of the pipeline ledger.

One process measures one workload: a reduced-size warm-up, then
repetitions until the time budget is spent.  Every repetition frees the
previous one's state, rebuilds its inputs in a fresh temp dir (that is
``setup_s``) and then runs the timed sections.  Closed loop, one client.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Optional

from benchmarks.pipeline import layers
from benchmarks.pipeline.trace import Tracer, self_times, unpatch

#: Repo root (``benchmarks/pipeline/harness.py`` is two levels below).
ROOT = Path(__file__).resolve().parents[2]
#: Scratch space: inside the checkout (the driver allows no writes
#: outside it) and named in ``.gitignore``.
WORK_ROOT = ROOT / ".bench_work"
#: Fewest repetitions a run reports medians over: untraced ones in an
#: untraced run, of each kind in a traced run (which alternates them).
MIN_REPS = 3
MIN_REPS_TRACED = 2
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


# -- one repetition ----------------------------------------------------------


@dataclass
class Context:
    """What a workload's ``setup`` gets."""

    seed: int
    dir: Path
    #: Set on traced repetitions: workloads then pass a live
    #: ``Instrumentation`` through the public constructors so cache
    #: counters can be read.
    tracer: Optional[Tracer] = None


@dataclass
class Rep:
    """Measurements of one repetition."""

    tracer: Optional[Tracer] = None
    setup_s: float = 0.0
    #: Timed sections that run once (or a few times, summed).
    phases: dict[str, float] = field(default_factory=dict)
    #: Timed sections that are latency samples of one request kind.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Counts and derived figures read off public results.
    counts: dict[str, float] = field(default_factory=dict)
    ops: int = 0
    failures: list[str] = field(default_factory=list)

    def _section(self):
        """Recording is on only inside a timed section: each one is a
        root span, whose self time is the section's unattributed time."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.root("bench")

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the block as (part of) phase ``name``.

        Garbage is collected first, so a full collection the previous
        phase left pending is not charged to this one.
        """
        gc.collect()
        with self._section():
            start = perf_counter()
            try:
                yield
            finally:
                elapsed = perf_counter() - start
                self.phases[name] = self.phases.get(name, 0.0) + elapsed

    @contextmanager
    def sample(self, kind: str) -> Iterator[None]:
        """Time the block as one latency sample of request ``kind``."""
        with self._section():
            start = perf_counter()
            try:
                yield
            finally:
                self.samples.setdefault(kind, []).append(
                    perf_counter() - start
                )

    def check(self, ok: bool, message: str) -> None:
        """A correctness gate; a failed one fails the repetition."""
        if not ok:
            self.failures.append(message)

    @property
    def wall_s(self) -> float:
        """The timed region: every phase and every sample."""
        return sum(self.phases.values()) + sum(
            sum(values) for values in self.samples.values()
        )


# -- statistics --------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def percentile(values: list[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (nearest rank), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if len(values) * (1.0 - q) < MIN_BEYOND:
        return None
    return nearest_rank(values, q)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    # Inclusive: the repetitions are the whole sample, not a draw.
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(per_rep: list[float], value: Optional[float] = None,
              n: Optional[int] = None) -> dict[str, Any]:
    """One metric's result row: the value, the per-repetition values it
    was taken from and their quartiles."""
    q1, q3 = quartiles(per_rep)
    row: dict[str, Any] = {
        "value": statistics.median(per_rep) if value is None else value,
        "reps": per_rep,
        "q1": q1,
        "q3": q3,
    }
    if n is not None:
        row["n"] = n
    return row


def latency_rows(reps: list[Rep], kind: str, prefix: str) -> dict[str, dict]:
    """``<prefix>_p50_ms`` / ``<prefix>_p95_ms`` over the pooled samples
    of all repetitions; the per-repetition percentiles give the spread."""
    per_rep_ms = [
        [s * 1e3 for s in rep.samples[kind]]
        for rep in reps if rep.samples.get(kind)
    ]
    pooled = [ms for samples in per_rep_ms for ms in samples]
    rows = {}
    for label, q in (("p50", 0.50), ("p95", 0.95)):
        value = (
            statistics.median(pooled) if q == 0.50 else percentile(pooled, q)
        )
        if value is not None:
            rows[f"{prefix}_{label}_ms"] = summarize(
                [nearest_rank(samples, q) for samples in per_rep_ms],
                value, len(pooled),
            )
    return rows


# -- machine -----------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point match)."""
    best, fstype = "", "unknown"
    try:
        target = str(path.resolve())
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _dev, mount, kind = line.split()[:3]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def fingerprint(workdir: Path) -> dict[str, Any]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tmp_filesystem": filesystem_of(workdir),
        "loadavg_at_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the run loop ------------------------------------------------------------


def _one_rep(workload: Any, seed: int, rep_dir: Path,
             tracer: Optional[Tracer]) -> Rep:
    """Set up, run and verify one repetition; always tears down."""
    rep = Rep(tracer=tracer)
    undo = layers.install(tracer) if tracer is not None else []
    state = None
    try:
        start = perf_counter()
        gc.collect()
        rep_dir.mkdir(parents=True)
        state = workload.setup(Context(seed=seed, dir=rep_dir, tracer=tracer))
        rep.setup_s = perf_counter() - start
        workload.run(state, rep)
        workload.verify(state, rep)
    finally:
        unpatch(undo)
        if state is not None:
            workload.close(state)
        del state
        shutil.rmtree(rep_dir, ignore_errors=True)
        # Commit the deletions now, not in the next repetition's timed
        # region: campaign-cold's spread between runs halved with this.
        os.sync()
    return rep


@dataclass
class Measured:
    """What one process measured, before it is turned into a result."""

    machine: dict[str, Any]
    #: Repetitions timed with tracing off, and with the wrappers on.
    plain: list[Rep]
    traced: list[Rep]
    #: Per traced repetition: span name -> (self time, calls), and the
    #: tracer's counters.
    layer_rows: list[dict[str, tuple[float, int]]]
    counter_rows: list[dict[str, float]]


def run_workload(workload: Any, warmup: Any, seed: int, seconds: float,
                 trace: bool) -> Measured:
    """Measure one workload for about ``seconds``.

    Untraced: every repetition is timed with tracing off.  Traced:
    untraced and traced repetitions alternate, so the per-layer numbers
    come with the tracing overhead measured in the same process.
    """
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    machine = fingerprint(workdir)
    plain: list[Rep] = []
    traced: list[Rep] = []
    layer_rows: list[dict[str, tuple[float, int]]] = []
    counter_rows: list[dict[str, float]] = []
    try:
        _one_rep(warmup, seed, workdir / "warmup", None)
        begun = perf_counter()
        index = 0
        while True:
            if trace:
                enough = min(len(plain), len(traced)) >= MIN_REPS_TRACED
            else:
                enough = len(plain) >= MIN_REPS
            if enough and perf_counter() - begun >= seconds:
                break
            tracer = Tracer() if trace and index % 2 == 1 else None
            rep = _one_rep(workload, seed, workdir / f"rep{index}", tracer)
            if tracer is None:
                plain.append(rep)
            else:
                traced.append(rep)
                layer_rows.append(self_times(tracer.spans))
                counter_rows.append(dict(tracer.counters))
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another workload's process is still using it
    return Measured(machine, plain, traced, layer_rows, counter_rows)
