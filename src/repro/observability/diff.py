"""Run-diff and regression detection over flight records.

Two complementary entry points:

* :func:`diff_records` — pairwise comparison of two parsed
  :class:`~repro.observability.recorder.RunRecord` objects: makespan,
  critical-path seconds, retry/fault/failure counts, and
  per-transformation mean step durations, with each delta flagged
  significant or not;
* :func:`regression_report` — one candidate run against a *baseline
  population* pooled from the workspace's recorded runs
  (:meth:`~repro.system.Workspace.history`), the shape a CI regression
  gate wants ("is today's run slower than the last N?").

Both read a step's duration the one way the record decoder defines it
(:meth:`~repro.observability.recorder.RunRecord.duration_samples`, the
successful attempt's ``end - start``), so a pair of identical runs is
clean under either.

Significance is deliberately conservative and distribution-free at
its core: a delta is flagged when **both** the relative change exceeds
``threshold_pct`` **and** the absolute change exceeds ``abs_floor``
(simulated timings are often tiny and exactly reproducible, so a pure
relative test would scream over microseconds).  When both sides carry
enough samples (n ≥ 2) *and* show actual variance, a Welch t statistic
is additionally required to exceed :data:`T_THRESHOLD` — this quiets
flapping on noisy wall-clock runs without ever muting the
deterministic simulation case, whose zero variance always defers to
the relative test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.observability.analysis import critical_path
from repro.observability.recorder import RunRecord

#: Welch t statistic required when a variance-based test is possible.
T_THRESHOLD = 2.0

#: Default relative-change gate, in percent.
DEFAULT_THRESHOLD_PCT = 25.0

#: Default absolute-change floor, in seconds.
DEFAULT_ABS_FLOOR = 1e-3


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _variance(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    mu = _mean(xs)
    return sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)


def welch_t(a: list[float], b: list[float]) -> Optional[float]:
    """Welch's t statistic, or None when variance can't support one."""
    if len(a) < 2 or len(b) < 2:
        return None
    pooled = _variance(a) / len(a) + _variance(b) / len(b)
    if pooled <= 0.0:
        return None
    return abs(_mean(b) - _mean(a)) / math.sqrt(pooled)


def is_significant(
    base: list[float],
    cand: list[float],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> bool:
    """Whether the base→cand shift clears the significance gate."""
    base_mean, cand_mean = _mean(base), _mean(cand)
    delta = cand_mean - base_mean
    if abs(delta) < abs_floor:
        return False
    if base_mean > 0:
        relative_pct = abs(delta) / base_mean * 100.0
    else:
        relative_pct = math.inf
    if relative_pct < threshold_pct:
        return False
    t = welch_t(base, cand)
    if t is not None and t < T_THRESHOLD:
        return False
    return True


@dataclass
class TransformationDelta:
    """One transformation's timing shift between base and candidate."""

    transformation: str
    base_mean: float
    cand_mean: float
    base_n: int
    cand_n: int
    significant: bool

    @property
    def delta(self) -> float:
        return self.cand_mean - self.base_mean

    @property
    def delta_pct(self) -> float:
        if self.base_mean > 0:
            return self.delta / self.base_mean * 100.0
        return math.inf if self.delta > 0 else 0.0

    @property
    def regressed(self) -> bool:
        return self.significant and self.delta > 0

    @property
    def improved(self) -> bool:
        return self.significant and self.delta < 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "transformation": self.transformation,
            "base_mean": self.base_mean,
            "cand_mean": self.cand_mean,
            "base_n": self.base_n,
            "cand_n": self.cand_n,
            "delta": self.delta,
            "delta_pct": (
                None if math.isinf(self.delta_pct) else self.delta_pct
            ),
            "significant": self.significant,
        }


@dataclass
class RunDiff:
    """The full comparison between a base and a candidate run."""

    base_id: str
    cand_id: str
    makespan: tuple[Optional[float], Optional[float]]
    critical_path: tuple[Optional[float], Optional[float]]
    retries: tuple[int, int]
    faults: tuple[int, int]
    failures: tuple[int, int]
    transformations: list[TransformationDelta] = field(
        default_factory=list
    )
    #: Profiled lifecycle-phase shifts (schema v2 runs only; the
    #: ``transformation`` field of each delta holds the phase name).
    #: Empty whenever either side was not profiled.
    phases: list[TransformationDelta] = field(default_factory=list)
    makespan_significant: bool = False
    threshold_pct: float = DEFAULT_THRESHOLD_PCT

    @property
    def regressions(self) -> list[TransformationDelta]:
        return [d for d in self.transformations if d.regressed]

    @property
    def improvements(self) -> list[TransformationDelta]:
        return [d for d in self.transformations if d.improved]

    @property
    def phase_regressions(self) -> list[TransformationDelta]:
        return [d for d in self.phases if d.regressed]

    @property
    def makespan_regressed(self) -> bool:
        base, cand = self.makespan
        return (
            self.makespan_significant
            and base is not None
            and cand is not None
            and cand > base
        )

    @property
    def clean(self) -> bool:
        """No regressions anywhere (improvements don't count)."""
        return (
            not self.regressions
            and not self.phase_regressions
            and not self.makespan_regressed
        )

    def to_dict(self) -> dict[str, Any]:
        out = {
            "base": self.base_id,
            "candidate": self.cand_id,
            "makespan": {
                "base": self.makespan[0],
                "candidate": self.makespan[1],
                "significant": self.makespan_significant,
            },
            **{
                label: {"base": pair[0], "candidate": pair[1]}
                for label, pair in (
                    ("critical_path", self.critical_path),
                    ("retries", self.retries),
                    ("faults", self.faults),
                    ("failures", self.failures),
                )
            },
            "transformations": [
                d.to_dict() for d in self.transformations
            ],
            "regressions": [
                d.transformation for d in self.regressions
            ],
            "improvements": [
                d.transformation for d in self.improvements
            ],
            "clean": self.clean,
            "threshold_pct": self.threshold_pct,
        }
        # Phase keys appear only when a phase comparison happened, so
        # diffs of pre-profile (schema v1) records serialize exactly
        # as they did before the profiler existed.
        if self.phases:
            out["phases"] = [d.to_dict() for d in self.phases]
            out["phase_regressions"] = [
                d.transformation for d in self.phase_regressions
            ]
        return out

    def render(self) -> str:
        lines = [f"diff {self.base_id} -> {self.cand_id}"]

        def fmt(value: Optional[float]) -> str:
            return f"{value:.3f}s" if value is not None else "?"

        marker = " **" if self.makespan_significant else ""
        lines.append(
            f"  makespan       {fmt(self.makespan[0])} -> "
            f"{fmt(self.makespan[1])}{marker}"
        )
        lines.append(
            f"  critical path  {fmt(self.critical_path[0])} -> "
            f"{fmt(self.critical_path[1])}"
        )
        for label, pair in (
            ("retries", self.retries),
            ("faults", self.faults),
            ("failures", self.failures),
        ):
            lines.append(f"  {label:<14} {pair[0]} -> {pair[1]}")
        for title, deltas in (
            ("per-transformation mean step duration", self.transformations),
            ("profiled phase seconds", self.phases),
        ):
            if deltas:
                lines.append(f"  {title}:")
            for d in sorted(deltas, key=lambda d: -abs(d.delta)):
                pct = (
                    f"{d.delta_pct:+.1f}%"
                    if not math.isinf(d.delta_pct)
                    else "new"
                )
                flag = " **" if d.significant else ""
                lines.append(
                    f"    {d.transformation:<20} "
                    f"{d.base_mean:.3f}s -> {d.cand_mean:.3f}s "
                    f"({pct}, n={d.base_n}->{d.cand_n}){flag}"
                )
        regressed = [d.transformation for d in self.regressions]
        regressed.extend(
            f"phase:{d.transformation}" for d in self.phase_regressions
        )
        if regressed:
            lines.append(f"  REGRESSED: {', '.join(regressed)}")
        elif self.makespan_regressed:
            lines.append("  REGRESSED: makespan")
        else:
            lines.append("  no significant regressions")
        return "\n".join(lines)


def _phase_samples(record: RunRecord) -> dict[str, list[float]]:
    return {name: [stat["seconds"]] for name, stat in record.phases.items()}


def _pooled(
    records: Iterable[RunRecord],
    samples: Callable[[RunRecord], dict[str, list[float]]],
) -> dict[str, list[float]]:
    """Each record's ``samples`` concatenated per key, in run-id order."""
    out: dict[str, list[float]] = {}
    for record in sorted(records, key=lambda r: r.run_id):
        for key, values in samples(record).items():
            out.setdefault(key, []).extend(values)
    return out


def _critical_seconds(record: RunRecord) -> Optional[float]:
    try:
        report = critical_path(record)
    except Exception:
        return None
    return report.path_seconds if report.steps else None


def diff_durations(
    base_id: str,
    cand_id: str,
    base_samples: dict[str, list[float]],
    cand_samples: dict[str, list[float]],
    *,
    makespan: tuple[Optional[float], Optional[float]] = (None, None),
    critical: tuple[Optional[float], Optional[float]] = (None, None),
    retries: tuple[int, int] = (0, 0),
    faults: tuple[int, int] = (0, 0),
    failures: tuple[int, int] = (0, 0),
    base_phases: Optional[dict[str, list[float]]] = None,
    cand_phases: Optional[dict[str, list[float]]] = None,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> RunDiff:
    """Build a :class:`RunDiff` from pre-extracted duration samples.

    The shared core of :func:`diff_records` (samples from two parsed
    records) and :func:`regression_report` (baseline samples pooled
    across runs).  ``base_phases``/``cand_phases`` carry
    profiled lifecycle-phase seconds; phase deltas are computed only
    when *both* sides have them, so an unprofiled run never gates on
    phases.
    """

    def build_deltas(
        base_map: dict[str, list[float]],
        cand_map: dict[str, list[float]],
    ) -> list[TransformationDelta]:
        deltas = []
        for tr in sorted(set(base_map) | set(cand_map)):
            base = base_map.get(tr, [])
            cand = cand_map.get(tr, [])
            if not cand:
                continue  # vanished from candidate: no timing signal
            deltas.append(
                TransformationDelta(
                    transformation=tr,
                    base_mean=_mean(base),
                    cand_mean=_mean(cand),
                    base_n=len(base),
                    cand_n=len(cand),
                    significant=bool(base)
                    and is_significant(
                        base, cand, threshold_pct, abs_floor
                    ),
                )
            )
        return deltas

    deltas = build_deltas(base_samples, cand_samples)
    phase_deltas: list[TransformationDelta] = []
    if base_phases and cand_phases:
        phase_deltas = build_deltas(base_phases, cand_phases)
    makespan_significant = (
        makespan[0] is not None
        and makespan[1] is not None
        and is_significant(
            [makespan[0]], [makespan[1]], threshold_pct, abs_floor
        )
    )
    return RunDiff(
        base_id=base_id,
        cand_id=cand_id,
        makespan=makespan,
        critical_path=critical,
        retries=retries,
        faults=faults,
        failures=failures,
        transformations=deltas,
        phases=phase_deltas,
        makespan_significant=makespan_significant,
        threshold_pct=threshold_pct,
    )


def diff_records(
    base: RunRecord,
    cand: RunRecord,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> RunDiff:
    """Compare two flight records end to end."""
    return diff_durations(
        base.run_id,
        cand.run_id,
        base.duration_samples(),
        cand.duration_samples(),
        makespan=(base.makespan(), cand.makespan()),
        critical=(_critical_seconds(base), _critical_seconds(cand)),
        retries=(base.retries, cand.retries),
        faults=(base.faults, cand.faults),
        failures=(base.failures, cand.failures),
        base_phases=_phase_samples(base),
        cand_phases=_phase_samples(cand),
        threshold_pct=threshold_pct,
        abs_floor=abs_floor,
    )


def regression_report(
    history: list[RunRecord],
    candidate: RunRecord,
    baseline_ids: Optional[Iterable[str]] = None,
    window: int = 20,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> RunDiff:
    """Compare one candidate run against a pooled historical baseline.

    ``history`` is every recorded run, oldest first (what
    :meth:`~repro.system.Workspace.history` returns).  ``baseline_ids``
    defaults to the last ``window`` of them, excluding the candidate
    itself.  Baseline duration samples are pooled across all baseline
    runs, so a one-off hiccup in a single old run doesn't dominate the
    mean.
    """
    if baseline_ids is None:
        ids = [
            record.run_id
            for record in history
            if record.run_id != candidate.run_id
        ]
        baseline_ids = ids[-window:]
    else:
        baseline_ids = [
            rid for rid in baseline_ids if rid != candidate.run_id
        ]
    if not baseline_ids:
        raise ValueError("no baseline runs to regress against")
    by_id = {record.run_id: record for record in history}
    missing = [rid for rid in baseline_ids if rid not in by_id]
    if missing:
        raise ValueError(
            f"baseline runs not in history: {', '.join(missing)}"
        )
    base_runs = [by_id[rid] for rid in baseline_ids]
    # Totals count each id as given; samples pool each run once.
    distinct = {record.run_id: record for record in base_runs}.values()
    base_makespans = [
        float(makespan)
        for makespan in (record.makespan() for record in base_runs)
        if makespan is not None
    ]
    base_label = (
        baseline_ids[0]
        if len(baseline_ids) == 1
        else f"baseline[{len(baseline_ids)}]"
    )
    cand_makespan = candidate.makespan()
    diff = diff_durations(
        base_label,
        candidate.run_id,
        _pooled(distinct, RunRecord.duration_samples),
        candidate.duration_samples(),
        makespan=(
            _mean(base_makespans) if base_makespans else None,
            cand_makespan,
        ),
        critical=(None, _critical_seconds(candidate)),
        retries=(sum(r.retries for r in base_runs), candidate.retries),
        faults=(sum(r.faults for r in base_runs), candidate.faults),
        failures=(sum(r.failures for r in base_runs), candidate.failures),
        base_phases=_pooled(distinct, _phase_samples),
        cand_phases=_phase_samples(candidate),
        threshold_pct=threshold_pct,
        abs_floor=abs_floor,
    )
    # With n >= 2 baseline makespans, let the variance-aware test
    # arbitrate instead of the two-point comparison above.
    if len(base_makespans) >= 2 and cand_makespan is not None:
        diff.makespan_significant = is_significant(
            base_makespans,
            [cand_makespan],
            threshold_pct,
            abs_floor,
        )
    return diff
