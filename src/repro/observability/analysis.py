"""Post-hoc analytics over recorded runs.

Everything here consumes a :class:`~repro.observability.recorder.
RunRecord` — nothing needs the live process that produced it:

* :func:`critical_path` — the longest duration-weighted chain through
  the executed plan, found by walking the *actual schedule* backwards
  (each step's critical predecessor is the dependency that finished
  last, i.e. the one that released it).  Because the executors dispatch
  a step the moment its dependencies complete, the path's step
  durations tile the makespan; the report says what to speed up.
* :func:`compute_slack` — classical CPM slack per executed step (how
  much longer a step could have taken without moving the finish line);
  critical steps have zero slack.
* :func:`transformation_profiles` / :func:`site_profiles` — latency and
  throughput aggregates from the recorded invocations, the same shape
  :meth:`repro.estimator.cost.Estimator.train_on_record` learns from.
* :func:`chrome_trace` — Chrome Trace Event Format (the JSON object
  form), loadable in Perfetto / ``chrome://tracing``: spans become
  complete (``"X"``) events laned by recording thread, step attempts
  laned by site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.topology import topological_levels
from repro.observability.recorder import RunRecord


@dataclass
class CriticalStep:
    """One step on the critical path."""

    step: str
    transformation: Optional[str]
    site: Optional[str]
    start: float
    end: float
    slack: float = 0.0
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """The critical path plus its makespan accounting."""

    steps: list[CriticalStep] = field(default_factory=list)
    makespan: float = 0.0
    clock: str = "sim"
    #: Per-step CPM slack for *every* executed step, not just the path.
    slack: dict[str, float] = field(default_factory=dict)

    @property
    def path_seconds(self) -> float:
        return sum(s.duration for s in self.steps)

    @property
    def coverage(self) -> float:
        """path_seconds / makespan (≈1.0 when dispatch never idled)."""
        if self.makespan <= 0:
            return 0.0
        return self.path_seconds / self.makespan

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan": self.makespan,
            "clock": self.clock,
            "path_seconds": self.path_seconds,
            "coverage": self.coverage,
            "steps": [
                {
                    "step": s.step,
                    "transformation": s.transformation,
                    "site": s.site,
                    "start": s.start,
                    "end": s.end,
                    "duration": s.duration,
                    "slack": s.slack,
                    "attempts": s.attempts,
                }
                for s in self.steps
            ],
            "slack": dict(sorted(self.slack.items())),
        }


def compute_slack(record: RunRecord) -> dict[str, float]:
    """CPM slack per executed step, from recorded durations.

    Forward pass computes each step's earliest finish over the recorded
    dependency DAG; the backward pass its latest finish against the
    project end; slack is the difference.  Dependencies that never ran
    (reused or pre-completed steps) are treated as instantly available.
    """
    timings = record.step_timings()
    if not timings:
        return {}
    deps = {
        name: [d for d in ds if d in timings]
        for name, ds in record.dependencies().items()
        if name in timings
    }
    for name in timings:
        deps.setdefault(name, [])
    durations = {n: t["end"] - t["start"] for n, t in timings.items()}

    # Both passes are iterative over a topological order: recursive
    # formulations hit Python's recursion limit near 10^3-deep chains,
    # and flight records now reach 10^5+ steps.
    order = [name for level in topological_levels(deps) for name in level]

    earliest_finish: dict[str, float] = {}
    for name in order:
        start = max(
            (earliest_finish[d] for d in deps[name]), default=0.0
        )
        earliest_finish[name] = start + durations[name]
    project_end = max(earliest_finish.values())

    # Backward, each step pushes its latest start to its predecessors:
    # a step's latest finish is the least latest start of its
    # successors, or the project end when nothing follows it.
    latest_finish: dict[str, float] = {}
    for name in reversed(order):
        latest_start = (
            latest_finish.setdefault(name, project_end) - durations[name]
        )
        for d in deps[name]:
            if d not in latest_finish or latest_start < latest_finish[d]:
                latest_finish[d] = latest_start

    return {
        name: max(latest_finish[name] - earliest_finish[name], 0.0)
        for name in timings
    }


def critical_path(record: RunRecord) -> CriticalPathReport:
    """Extract the critical path by walking the schedule backwards.

    Starts at the last step to finish; at each hop the critical
    predecessor is the executed dependency with the latest end time —
    the one whose completion released the step.  The chain's durations
    tile the makespan because dispatch is immediate on readiness.
    """
    timings = record.step_timings()
    report = CriticalPathReport()
    if not timings:
        return report
    report.clock = next(iter(timings.values())).get("clock", "sim")
    report.slack = compute_slack(record)
    deps = record.dependencies()
    plan_steps = record.plan_steps()

    # Built tail-first then reversed: list.insert(0, ...) is O(n) per
    # hop, which made deep chains quadratic to extract.
    chain: list[dict[str, Any]] = [
        max(timings.values(), key=lambda t: (t["end"], t["step"]))
    ]
    while True:
        executed = [
            timings[d]
            for d in deps.get(chain[-1]["step"], ())
            if d in timings
        ]
        if not executed:
            break
        chain.append(
            max(executed, key=lambda t: (t["end"], t["step"]))
        )
    chain.reverse()
    for timing in chain:
        name = timing["step"]
        report.steps.append(
            CriticalStep(
                step=name,
                transformation=(
                    plan_steps.get(name, {}).get("transformation")
                ),
                site=timing.get("site"),
                start=timing["start"],
                end=timing["end"],
                slack=report.slack.get(name, 0.0),
                attempts=timing.get("attempts", 1),
            )
        )
    makespan = record.makespan()
    report.makespan = (
        makespan if makespan is not None else report.path_seconds
    )
    return report


# -- latency / throughput profiles -------------------------------------------


def transformation_profiles(record: RunRecord) -> list[dict[str, Any]]:
    """Per-transformation latency+throughput from recorded invocations.

    This is exactly the estimator's food: (bytes_read, cpu_seconds)
    pairs aggregated per transformation, plus wall latency and
    bytes/second throughput.
    """
    plan_steps = record.plan_steps()
    groups: dict[str, list[dict[str, Any]]] = {}
    for inv in record.invocations:
        name = inv.get("derivation_name", "")
        entry = plan_steps.get(name)
        transformation = (
            entry["transformation"] if entry else f"?{name}"
        )
        groups.setdefault(transformation, []).append(inv)
    profiles = []
    for transformation in sorted(groups):
        invs = groups[transformation]
        ok = [i for i in invs if i.get("status") == "success"]
        walls = [i["usage"]["wall_seconds"] for i in ok]
        cpus = [i["usage"]["cpu_seconds"] for i in ok]
        read = sum(i["usage"]["bytes_read"] for i in ok)
        written = sum(i["usage"]["bytes_written"] for i in ok)
        wall_total = sum(walls)
        profiles.append(
            {
                "transformation": transformation,
                "runs": len(invs),
                "failures": len(invs) - len(ok),
                "mean_wall_seconds": (
                    wall_total / len(walls) if walls else 0.0
                ),
                "mean_cpu_seconds": (
                    sum(cpus) / len(cpus) if cpus else 0.0
                ),
                "bytes_read": read,
                "bytes_written": written,
                "throughput_bytes_per_second": (
                    read / wall_total if wall_total > 0 else 0.0
                ),
            }
        )
    return profiles


def site_profiles(record: RunRecord) -> list[dict[str, Any]]:
    """Per-site latency+throughput from recorded invocations."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for inv in record.invocations:
        site = inv.get("context", {}).get("site", "?")
        groups.setdefault(site, []).append(inv)
    profiles = []
    for site in sorted(groups):
        invs = groups[site]
        ok = [i for i in invs if i.get("status") == "success"]
        walls = [i["usage"]["wall_seconds"] for i in ok]
        read = sum(i["usage"]["bytes_read"] for i in ok)
        wall_total = sum(walls)
        profiles.append(
            {
                "site": site,
                "runs": len(invs),
                "failures": len(invs) - len(ok),
                "busy_seconds": wall_total,
                "mean_wall_seconds": (
                    wall_total / len(walls) if walls else 0.0
                ),
                "throughput_bytes_per_second": (
                    read / wall_total if wall_total > 0 else 0.0
                ),
            }
        )
    return profiles


# -- Chrome trace (Perfetto) export ------------------------------------------


def chrome_trace(record: RunRecord) -> dict[str, Any]:
    """A Chrome Trace Event Format object for one recorded run.

    JSON Object Format: ``{"traceEvents": [...], "displayTimeUnit":
    "ms"}``.  Spans become complete (``"X"``) events in one lane per
    recording thread; step attempts become ``"X"`` events in one lane
    per site.  Timestamps are microseconds from the run's first event,
    in the run's dominant clock (sim for grid runs, wall otherwise).

    Spans relayed from worker processes (the ``worker_pid`` attribute,
    set by the process backend's telemetry merge) get their own
    Perfetto *process* track — ``pid`` is the real worker pid — so a
    ``backend="process"`` run renders as the parent process plus one
    track per worker instead of flattening every lane onto ``pid 1``.
    Profiled runs (schema v2 ``profile`` line) additionally get a
    ``profiler`` lane with one event per lifecycle-phase interval.
    """
    attempts = record.step_attempts
    clock = attempts[0].get("clock", "sim") if attempts else "wall"
    events: list[tuple[int, str, str, float, float, dict[str, Any]]] = []
    # (pid, lane, name, start, end, args)
    for attempt in attempts:
        events.append(
            (
                1,
                f"site {attempt.get('site') or '?'}",
                attempt["step"],
                float(attempt["start"]),
                float(attempt["end"]),
                {
                    "status": attempt.get("status"),
                    "attempt": attempt.get("attempt", 1),
                    "host": attempt.get("host"),
                },
            )
        )
    for span in record.spans:
        if clock == "sim":
            start, end = span.get("start_sim"), span.get("end_sim")
        else:
            start, end = span.get("start_wall"), span.get("end_wall")
        if start is None or end is None:
            continue
        args = dict(span.get("attributes") or {})
        args["status"] = span.get("status")
        try:
            pid = int(args.get("worker_pid", 1))
        except (TypeError, ValueError):
            pid = 1
        lane = f"thread {span.get('thread') or 'main'}"
        events.append(
            (pid, lane, span["name"], float(start), float(end), args)
        )
    if record.profile and clock == "wall":
        # Phase intervals are absolute wall stamps — the same clock
        # domain local step attempts already use.
        for phase, stat in sorted(
            record.profile.get("phases", {}).items()
        ):
            for interval in stat.get("intervals", ()):
                events.append(
                    (
                        1,
                        "profiler",
                        f"phase {phase}",
                        float(interval[0]),
                        float(interval[1]),
                        {"samples": stat.get("samples")},
                    )
                )

    trace_events: list[dict[str, Any]] = []
    if events:
        t0 = min(start for _, _, _, start, _, _ in events)
        pids = sorted({pid for pid, *_ in events})
        lanes_by_pid = {
            pid: sorted(
                {lane for p, lane, *_ in events if p == pid}
            )
            for pid in pids
        }
        tids = {
            (pid, lane): i + 1
            for pid in pids
            for i, lane in enumerate(lanes_by_pid[pid])
        }
        for pid in pids:
            label = (
                f"repro {record.run_id} ({clock} clock)"
                if pid == 1
                else f"worker {pid}"
            )
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
            for lane in lanes_by_pid[pid]:
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tids[(pid, lane)],
                        "args": {"name": lane},
                    }
                )
        for pid, lane, name, start, end, args in sorted(
            events, key=lambda e: (e[3], e[0], e[1], e[2])
        ):
            trace_events.append(
                {
                    "name": name,
                    "cat": "repro",
                    "ph": "X",
                    "pid": pid,
                    "tid": tids[(pid, lane)],
                    "ts": (start - t0) * 1e6,
                    "dur": max(end - start, 0.0) * 1e6,
                    "args": {
                        k: v for k, v in args.items() if v is not None
                    },
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict[str, Any]) -> list[str]:
    """Shape-check a trace object; returns problems (empty = valid).

    Covers the Trace Event JSON requirements Perfetto actually
    enforces: a ``traceEvents`` list whose entries carry ``name``/
    ``ph``/``pid``/``tid``, with ``ts`` and a non-negative ``dur`` on
    complete events.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
        phase = event.get("ph")
        if phase == "X":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event {i}: X event without numeric ts")
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i}: X event needs a non-negative dur"
                )
        elif phase == "M":
            if "args" not in event:
                problems.append(f"event {i}: metadata event without args")
        elif phase is not None and not isinstance(phase, str):
            problems.append(f"event {i}: ph must be a string")
    return problems


# -- text report --------------------------------------------------------------


def report_dict(record: RunRecord) -> dict[str, Any]:
    """The machine-readable ``repro report --json`` payload."""
    path = critical_path(record)
    event_counts: dict[str, int] = {}
    for event in record.events:
        kind = event.get("kind", "?")
        event_counts[kind] = event_counts.get(kind, 0) + 1
    statuses: dict[str, int] = {}
    for timing in record.step_timings().values():
        statuses[timing["status"]] = statuses.get(timing["status"], 0) + 1
    data = {
        "run_id": record.run_id,
        "schema_version": record.schema_version,
        "command": record.command,
        "status": record.status,
        "makespan": record.makespan(),
        "steps": statuses,
        "invocations": len(record.invocations),
        "events": dict(sorted(event_counts.items())),
        "critical_path": path.to_dict(),
        "transformation_profiles": transformation_profiles(record),
        "site_profiles": site_profiles(record),
    }
    # Only profiled (schema v2) runs carry the key: pre-profile
    # records keep producing byte-identical reports.
    if record.profile is not None:
        data["profile_phases"] = {
            name: {
                "seconds": stat.get("seconds", 0.0),
                "samples": stat.get("samples", 0),
                "peak_bytes": stat.get("peak_bytes", 0),
            }
            for name, stat in record.profile.get("phases", {}).items()
        }
    return data


def render_report(record: RunRecord) -> str:
    """The human-readable ``repro report`` text."""
    data = report_dict(record)
    path = data["critical_path"]
    lines = [
        f"run {data['run_id']}  status={data['status']}"
        + (f"  command={data['command']}" if data["command"] else ""),
    ]
    makespan = data["makespan"]
    if makespan is not None:
        lines.append(
            f"makespan {makespan:.3f}s ({path['clock']} clock)  "
            f"critical path {path['path_seconds']:.3f}s "
            f"({path['coverage'] * 100.0:.1f}% of makespan)"
        )
    if data["steps"]:
        summary = "  ".join(
            f"{status}={n}" for status, n in sorted(data["steps"].items())
        )
        lines.append(
            f"steps: {summary}  invocations: {data['invocations']}"
        )
    if path["steps"]:
        # Wall-clock records carry epoch timestamps; print the time
        # axis relative to the first path step either way.
        t0 = min(step["start"] for step in path["steps"])
        lines.append("")
        lines.append("critical path:")
        lines.append(
            f"  {'start':>10} {'end':>10} {'dur':>8} {'slack':>7}  "
            f"{'step':<28} {'transformation':<20} site"
        )
        for step in path["steps"]:
            lines.append(
                f"  {step['start'] - t0:>10.3f} {step['end'] - t0:>10.3f} "
                f"{step['duration']:>8.3f} {step['slack']:>7.3f}  "
                f"{step['step']:<28} "
                f"{step['transformation'] or '-':<20} "
                f"{step['site'] or '-'}"
            )
    if data["transformation_profiles"]:
        lines.append("")
        lines.append("transformation profiles:")
        lines.append(
            f"  {'transformation':<24} {'runs':>5} {'fail':>5} "
            f"{'mean wall':>10} {'mean cpu':>10} {'MB/s':>8}"
        )
        for profile in data["transformation_profiles"]:
            lines.append(
                f"  {profile['transformation']:<24} "
                f"{profile['runs']:>5} {profile['failures']:>5} "
                f"{profile['mean_wall_seconds']:>9.3f}s "
                f"{profile['mean_cpu_seconds']:>9.3f}s "
                f"{profile['throughput_bytes_per_second'] / 1e6:>8.2f}"
            )
    if data["site_profiles"]:
        lines.append("")
        lines.append("site profiles:")
        lines.append(
            f"  {'site':<16} {'runs':>5} {'fail':>5} "
            f"{'busy':>10} {'mean wall':>10} {'MB/s':>8}"
        )
        for profile in data["site_profiles"]:
            lines.append(
                f"  {profile['site']:<16} "
                f"{profile['runs']:>5} {profile['failures']:>5} "
                f"{profile['busy_seconds']:>9.3f}s "
                f"{profile['mean_wall_seconds']:>9.3f}s "
                f"{profile['throughput_bytes_per_second'] / 1e6:>8.2f}"
            )
    if data.get("profile_phases"):
        lines.append("")
        lines.append("profiled phases:")
        for name, stat in sorted(
            data["profile_phases"].items(),
            key=lambda kv: -kv[1]["seconds"],
        ):
            peak = stat["peak_bytes"]
            peak_note = f"  peak {peak / 1e6:.1f} MB" if peak else ""
            lines.append(
                f"  {name:<16} {stat['seconds']:8.3f}s "
                f"{stat['samples']:6d} samples{peak_note}"
            )
    if data["events"]:
        lines.append("")
        lines.append(
            "events: "
            + ", ".join(
                f"{kind} x{n}" for kind, n in data["events"].items()
            )
        )
    return "\n".join(lines) + "\n"
