"""Grid health: per-site SLOs computed from the recorded runs.

The CMS production postmortems (PAPERS.md) are unambiguous about what
keeps a long campaign alive: operators notice a *site* going bad —
rising failure rates, latency blowups, breakers flapping — before it
poisons whole workflow generations.  This module condenses the
workspace's flight records (:meth:`~repro.system.Workspace.history`)
into exactly that signal.

For each site over a window of recent runs we compute:

* **success rate** against an SLO target (default 95%),
* **error budget burn** — failures divided by the failures the budget
  allows over the observed attempt volume (burn 1.0 = budget exactly
  spent; > 1.0 = overspent),
* **p95 step latency**, compared against the median of per-site p95s
  (a site ``latency_factor`` × slower than its peers is degraded even
  if it succeeds),
* **circuit-breaker open time**, reconstructed from recorded breaker
  transitions (a breaker that opened at all is a degradation signal).

The rollup is deliberately three-valued — ``ok`` / ``degraded`` /
``critical`` — because that's what an operator pages on, and
:func:`health_penalties` converts it into the soft scheduling penalty
(extra estimated queue seconds) the site selector folds into
placement, closing the loop from observed history back into planning.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional

from repro.observability.recorder import RunRecord

#: Health statuses, worst-first rollup; codes exported as gauges.
OK, DEGRADED, CRITICAL = "ok", "degraded", "critical"
HEALTH_CODES = {OK: 0, DEGRADED: 1, CRITICAL: 2}


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set)."""
    if not samples:
        return 0.0
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(samples)
    rank = max(
        0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1)
    )
    if pct == 0.0:
        rank = 0
    return ordered[rank]


@dataclass
class SLOPolicy:
    """The service-level objectives a site is held to.

    ``success_target`` is the SLO itself (0.95 = at most 5% of
    attempts may fail before the error budget is spent).
    ``burn_degraded`` / ``burn_critical`` are the budget-burn levels
    at which the site's status escalates.  ``latency_factor`` flags a
    site whose p95 step latency exceeds that multiple of the reference
    (median per-site) p95.  ``window_runs`` bounds how much history
    the report reads.
    """

    success_target: float = 0.95
    latency_factor: float = 2.0
    burn_degraded: float = 1.0
    burn_critical: float = 3.0
    window_runs: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.success_target < 1.0:
            raise ValueError("success_target must be in (0, 1)")
        if self.latency_factor <= 0:
            raise ValueError("latency_factor must be positive")
        if self.burn_critical < self.burn_degraded:
            raise ValueError("burn_critical must be >= burn_degraded")


@dataclass
class SiteHealth:
    """One site's SLO scorecard over the report window."""

    site: str
    attempts: int
    failures: int
    success_rate: float
    error_budget_burn: float
    p95_latency: float
    grid_p95_latency: float
    breaker_open_seconds: float
    status: str
    reasons: list[str] = field(default_factory=list)

    @property
    def status_code(self) -> int:
        return HEALTH_CODES[self.status]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class HealthReport:
    """The per-site scorecards plus the worst-status rollup."""

    sites: list[SiteHealth]
    runs_considered: int
    policy: SLOPolicy

    @property
    def status(self) -> str:
        worst = OK
        for site in self.sites:
            if HEALTH_CODES[site.status] > HEALTH_CODES[worst]:
                worst = site.status
        return worst

    def site(self, name: str) -> Optional[SiteHealth]:
        for entry in self.sites:
            if entry.site == name:
                return entry
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "runs_considered": self.runs_considered,
            "success_target": self.policy.success_target,
            "sites": [s.to_dict() for s in self.sites],
        }

    def render(self) -> str:
        lines = [
            f"grid health: {self.status} "
            f"({self.runs_considered} runs, "
            f"SLO {self.policy.success_target:.0%} success)"
        ]
        if not self.sites:
            lines.append("  no per-site attempts recorded")
            return "\n".join(lines)
        for s in self.sites:
            lines.append(
                f"  {s.site:<12} {s.status:<9} "
                f"success {s.success_rate:6.1%}  "
                f"burn {s.error_budget_burn:5.2f}  "
                f"p95 {s.p95_latency:8.3f}s  "
                f"breaker-open {s.breaker_open_seconds:7.1f}s"
            )
            for reason in s.reasons:
                lines.append(f"               - {reason}")
        return "\n".join(lines)


def site_stats(runs: Iterable[RunRecord]) -> dict[str, dict[str, Any]]:
    """Per-site attempt totals, successful attempt durations and
    breaker open seconds, pooled over ``runs`` in run-id order.

    Failures and breaker open time feed the SLO error budget; the
    durations feed the latency percentiles.
    """
    stats: dict[str, dict[str, Any]] = defaultdict(
        lambda: {
            "attempts": 0,
            "failures": 0,
            "durations": [],
            "breaker_open_seconds": 0.0,
        }
    )
    for record in sorted(runs, key=lambda record: record.run_id):
        for row in record.attempts:
            if row.site is None:
                continue
            site = stats[row.site]
            site["attempts"] += 1
            if row.status != "success":
                site["failures"] += 1
            else:
                site["durations"].append(row.duration)
        for name, (open_seconds, _) in record.breaker_windows().items():
            stats[name]["breaker_open_seconds"] += open_seconds
    return dict(stats)


def grid_health(
    history: list[RunRecord],
    policy: Optional[SLOPolicy] = None,
    window: Optional[int] = None,
) -> HealthReport:
    """Score every site seen in the last ``window`` of ``history``'s
    runs (oldest first, as :meth:`~repro.system.Workspace.history`
    returns them)."""
    policy = policy or SLOPolicy()
    span = window if window is not None else policy.window_runs
    runs = history[-span:] if span else history
    stats = site_stats(runs)
    # Reference latency: the median of per-site p95s, so a single
    # pathological site cannot drag the grid reference up to itself
    # and mask its own outlier status.
    site_p95s = sorted(
        percentile(entry["durations"], 95.0)
        for entry in stats.values()
        if entry["durations"]
    )
    grid_p95 = (
        percentile(site_p95s, 50.0) if site_p95s else 0.0
    )
    allowed_rate = 1.0 - policy.success_target
    sites = []
    for name in sorted(stats):
        entry = stats[name]
        attempts = entry["attempts"]
        failures = entry["failures"]
        success_rate = (
            (attempts - failures) / attempts if attempts else 1.0
        )
        allowed_failures = attempts * allowed_rate
        if failures == 0:
            burn = 0.0
        elif allowed_failures > 0:
            burn = failures / allowed_failures
        else:
            burn = float(failures)
        p95 = percentile(entry["durations"], 95.0)
        reasons = []
        status = OK
        if burn >= policy.burn_critical:
            status = CRITICAL
            reasons.append(
                f"error budget overspent {burn:.1f}x "
                f"({failures}/{attempts} failed, "
                f"target {policy.success_target:.0%})"
            )
        elif burn > policy.burn_degraded:
            status = DEGRADED
            reasons.append(
                f"error budget burn {burn:.2f} "
                f"({failures}/{attempts} failed)"
            )
        if (
            grid_p95 > 0
            and p95 > policy.latency_factor * grid_p95
        ):
            status = status if status == CRITICAL else DEGRADED
            reasons.append(
                f"p95 latency {p95:.3f}s > "
                f"{policy.latency_factor:g}x grid p95 "
                f"({grid_p95:.3f}s)"
            )
        if entry["breaker_open_seconds"] > 0:
            status = status if status == CRITICAL else DEGRADED
            reasons.append(
                "circuit breaker open "
                f"{entry['breaker_open_seconds']:.1f}s in window"
            )
        sites.append(
            SiteHealth(
                site=name,
                attempts=attempts,
                failures=failures,
                success_rate=success_rate,
                error_budget_burn=burn,
                p95_latency=p95,
                grid_p95_latency=grid_p95,
                breaker_open_seconds=entry["breaker_open_seconds"],
                status=status,
                reasons=reasons,
            )
        )
    return HealthReport(
        sites=sites,
        runs_considered=len(runs),
        policy=policy,
    )


def health_penalties(
    report: HealthReport, scale: float = 60.0
) -> dict[str, float]:
    """Soft scheduling penalties (seconds) from a health report.

    A healthy site costs nothing; a degraded site is charged
    ``scale`` seconds of phantom queue time scaled by how badly its
    error budget is burning (floor 1x, so latency/breaker-only
    degradation still registers); a critical site is charged at least
    double.  The site selector adds these to its queue estimates —
    placement *prefers* healthy sites but can still use a degraded one
    when it is the only option, which is exactly the soft behaviour a
    breaker-style hard ban can't give.
    """
    penalties: dict[str, float] = {}
    for site in report.sites:
        if site.status == OK:
            penalties[site.site] = 0.0
            continue
        factor = max(1.0, site.error_budget_burn)
        if site.status == CRITICAL:
            factor = max(2.0, factor)
        penalties[site.site] = scale * factor
    return penalties


#: Per-site gauge families: (metric name, help, SiteHealth attribute).
_SITE_GAUGES = (
    ("site.health.status",
     "Per-site health (0=ok, 1=degraded, 2=critical)", "status_code"),
    ("site.success.rate",
     "Per-site attempt success rate over the health window", "success_rate"),
    ("site.error.budget.burn",
     "Per-site error budget burn (1.0 = budget spent)", "error_budget_burn"),
    ("site.latency.p95",
     "Per-site p95 successful step latency (seconds)", "p95_latency"),
    ("site.breaker.open.seconds",
     "Per-site circuit-breaker open time over the window",
     "breaker_open_seconds"),
)


def health_metrics(report: HealthReport) -> dict[str, dict[str, Any]]:
    """The report as metric families (``MetricsRegistry.to_dict``
    shape), ready to merge into an OpenMetrics exposition."""
    families = {
        "grid.health.status": {
            "kind": "gauge",
            "help": "Grid health rollup (0=ok, 1=degraded, 2=critical)",
            "series": [
                {"labels": {}, "value": HEALTH_CODES[report.status]}
            ],
        }
    }
    for name, help_, attr in _SITE_GAUGES:
        families[name] = {
            "kind": "gauge",
            "help": help_,
            "series": [
                {"labels": {"site": s.site}, "value": getattr(s, attr)}
                for s in report.sites
            ],
        }
    return families
