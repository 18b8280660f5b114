"""Exporters: JSON-lines spans, OpenMetrics text, trees.

Machine formats and one human format:

* :func:`spans_to_jsonl` — one JSON object per span, in creation
  order (the natural format for shipping traces off-process);
* :func:`to_openmetrics` / :func:`validate_openmetrics` — the one
  text exposition (what ``repro metrics --openmetrics`` and ``repro
  stats --format prom`` print and what a future catalog server's
  ``/metrics`` endpoint will serve), built from the portable
  :meth:`MetricsRegistry.to_dict` shape so it works equally on live
  registries, persisted snapshots, and flight-record metrics;
* :func:`render_span_tree` / :func:`render_metrics` — the terminal
  views behind ``repro trace`` and ``repro stats``.

:func:`write_snapshot` / :func:`read_snapshot` persist one run's
observability state to a directory, which is how the CLI hands data
from a ``materialize`` invocation to a later ``stats``/``trace``
invocation.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Optional

from repro.durability.atomic import atomic_write_text
from repro.observability.instrument import Instrumentation
from repro.observability.metrics import _fmt, _label_text, prometheus_name
from repro.observability.tracing import Tracer

SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"


# -- spans -------------------------------------------------------------------


def spans_to_jsonl(tracer: Tracer) -> str:
    """One JSON document per line, one line per span."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n"
        for span in tracer.spans()
    )


def spans_from_jsonl(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def render_span_tree(source: Tracer | list[dict[str, Any]]) -> str:
    """An indented text tree of spans with both clocks and attributes.

    Accepts a live tracer or the dicts loaded from a JSONL export, so
    the CLI can render traces recorded by an earlier process.
    """
    if isinstance(source, Tracer):
        spans = [s.to_dict() for s in source.spans()]
    else:
        spans = list(source)
    children: dict[Optional[int], list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s["span_id"])

    lines: list[str] = []

    def walk(span: dict[str, Any], depth: int) -> None:
        lines.append("  " * depth + _span_line(span))
        for event in span.get("events", ()):
            lines.append("  " * (depth + 1) + _event_line(event))
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


def _span_line(span: dict[str, Any]) -> str:
    parts = [span["name"]]
    start_wall, end_wall = span.get("start_wall"), span.get("end_wall")
    if start_wall is not None and end_wall is not None:
        parts.append(f"wall={_seconds(end_wall - start_wall)}")
    elif start_wall is not None:
        # Exported mid-flight (e.g. a crash dump): there is no duration
        # to print, and pretending 0s would misread as "instant".
        parts.append("unfinished")
    start_sim, end_sim = span.get("start_sim"), span.get("end_sim")
    if start_sim is not None and end_sim is not None:
        parts.append(f"sim={_seconds(end_sim - start_sim)}")
    if span.get("status") != "ok":
        parts.append(f"status={span['status']}")
    for key, value in sorted(span.get("attributes", {}).items()):
        parts.append(f"{key}={value}")
    return " ".join(str(p) for p in parts)


def _event_line(event: dict[str, Any]) -> str:
    parts = [f"· {event['name']}"]
    if event.get("sim") is not None:
        parts.append(f"sim_t={_seconds(event['sim'])}")
    for key, value in sorted(event.get("attributes", {}).items()):
        parts.append(f"{key}={value}")
    return " ".join(str(p) for p in parts)


def _seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.2f}ms"


# -- metrics (human view) ----------------------------------------------------


def render_metrics(metrics: dict[str, dict]) -> str:
    """Terminal view of :meth:`MetricsRegistry.to_dict` output."""
    lines: list[str] = []
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("kind", "untyped")
        lines.append(f"{name} [{kind}]")
        for series in entry.get("series", ()):
            labels = series.get("labels", {})
            label_text = (
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if kind == "histogram":
                count = series.get("count", 0)
                total = series.get("sum", 0.0)
                mean = total / count if count else 0.0
                lines.append(
                    f"  {label_text or '(all)'} count={count} "
                    f"sum={total:.6g} mean={mean:.6g}"
                )
            else:
                lines.append(
                    f"  {label_text or '(all)'} {series.get('value', 0):.6g}"
                )
    return "\n".join(lines)


# -- OpenMetrics -------------------------------------------------------------

#: OpenMetrics sample-suffix rules per metric family type.
_OM_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count"),
    "untyped": ("",),
}

_OM_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def to_openmetrics(
    metrics: dict[str, dict[str, Any]],
    extra: Optional[dict[str, dict[str, Any]]] = None,
) -> str:
    """OpenMetrics text exposition from ``MetricsRegistry.to_dict``
    output (also the shape stored in snapshots and flight records).

    Differences from the Prometheus 0.0.4 format matter to scrapers:
    counter samples carry the ``_total`` suffix, the ``# TYPE`` line
    names the *family* (no suffix), and the exposition is terminated
    by a mandatory ``# EOF`` marker.  ``extra`` families (e.g.
    :func:`repro.observability.health.health_metrics`) are merged in
    after the live metrics; on a name collision the live metric wins.
    """
    merged = dict(extra or {})
    merged.update(metrics)
    lines: list[str] = []
    for name in sorted(merged):
        entry = merged[name]
        kind = entry.get("kind", "untyped")
        om_kind = kind if kind in _OM_SUFFIXES else "untyped"
        pname = prometheus_name(name)
        help_ = entry.get("help", "")
        if help_:
            # HELP text escapes only backslash and newline (the label
            # value escaper would also escape quotes, which OpenMetrics
            # does not do here).
            escaped = help_.replace("\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {pname} {escaped}")
        lines.append(
            f"# TYPE {pname} "
            f"{'unknown' if om_kind == 'untyped' else om_kind}"
        )
        for series in entry.get("series", ()):
            labels = dict(series.get("labels", {}))
            if om_kind == "histogram":
                running = 0
                bounds = [*entry.get("buckets", ()), float("inf")]
                counts = series.get("bucket_counts", [])
                for bound, n in zip(bounds, counts):
                    running += n
                    le = (
                        "+Inf"
                        if bound == float("inf")
                        else _fmt(bound)
                    )
                    lines.append(
                        f"{pname}_bucket"
                        f"{_label_text({**labels, 'le': le})} "
                        f"{running}"
                    )
                lines.append(
                    f"{pname}_sum{_label_text(labels)} "
                    f"{_fmt(series.get('sum', 0.0))}"
                )
                lines.append(
                    f"{pname}_count{_label_text(labels)} "
                    f"{series.get('count', 0)}"
                )
            elif om_kind == "counter":
                lines.append(
                    f"{pname}_total{_label_text(labels)} "
                    f"{_fmt(series.get('value', 0))}"
                )
            else:
                lines.append(
                    f"{pname}{_label_text(labels)} "
                    f"{_fmt(series.get('value', 0))}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)(?: (?P<timestamp>[0-9.+-eE]+))?$"
)

_OM_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$'
)


def validate_openmetrics(text: str) -> list[str]:
    """Structural validation of an OpenMetrics exposition.

    Returns a list of problems (empty = valid).  Checks the contract a
    scraper relies on: a single terminating ``# EOF``; every sample
    preceded by its family's ``# TYPE``; no duplicate ``# TYPE`` for a
    family; type-appropriate sample suffixes (``_total`` for counters,
    ``_bucket``/``_sum``/``_count`` for histograms, bare names for
    gauges); histogram bucket sets ending at ``le="+Inf"``; and
    parseable label/value syntax throughout.
    """
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition must end with '# EOF'")
    body = lines[:-1] if lines and lines[-1] == "# EOF" else lines
    types: dict[str, str] = {}
    saw_inf_bucket: dict[str, bool] = {}
    for i, line in enumerate(body, 1):
        if not line:
            problems.append(f"line {i}: blank line inside exposition")
            continue
        if line == "# EOF":
            problems.append(f"line {i}: '# EOF' before end of text")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"line {i}: malformed TYPE line")
                continue
            _, _, family, kind = parts
            if not _OM_NAME_RE.fullmatch(family):
                problems.append(
                    f"line {i}: invalid family name {family!r}"
                )
            if kind not in (
                "counter", "gauge", "histogram", "summary",
                "unknown", "info", "stateset",
            ):
                problems.append(
                    f"line {i}: unknown metric type {kind!r}"
                )
            if family in types:
                problems.append(
                    f"line {i}: duplicate TYPE for family {family!r}"
                )
            types[family] = kind
            continue
        if line.startswith("# HELP ") or line.startswith("# UNIT "):
            continue
        if line.startswith("#"):
            problems.append(f"line {i}: unrecognized comment {line!r}")
            continue
        match = _OM_SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {i}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels_text = match.group("labels")
        if labels_text:
            inner = labels_text[1:-1]
            if inner:
                for pair in _split_labels(inner):
                    if not _OM_LABEL_RE.match(pair):
                        problems.append(
                            f"line {i}: bad label syntax {pair!r}"
                        )
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {i}: non-numeric value "
                f"{match.group('value')!r}"
            )
        family, suffix = _om_family_of(name, types)
        if family is None:
            problems.append(
                f"line {i}: sample {name!r} has no preceding TYPE"
            )
            continue
        kind = types[family]
        allowed = _OM_SUFFIXES.get(
            kind if kind != "unknown" else "untyped", ("",)
        )
        if suffix not in allowed:
            problems.append(
                f"line {i}: sample suffix {suffix!r} not allowed "
                f"for {kind} family {family!r}"
            )
        if kind == "histogram" and suffix == "_bucket":
            if labels_text and 'le="+Inf"' in labels_text:
                saw_inf_bucket[family] = True
            else:
                saw_inf_bucket.setdefault(family, False)
    for family, saw in saw_inf_bucket.items():
        if not saw:
            problems.append(
                f"histogram {family!r} has no le=\"+Inf\" bucket"
            )
    return problems


def _split_labels(inner: str) -> list[str]:
    """Split ``k="v",k2="v2"`` respecting escaped quotes in values."""
    pairs: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for ch in inner:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current))
    return pairs


def _om_family_of(
    sample_name: str, types: dict[str, str]
) -> tuple[Optional[str], str]:
    """Resolve a sample name to ``(family, suffix)`` via known TYPEs."""
    for suffix in ("_bucket", "_sum", "_count", "_total", ""):
        if suffix and not sample_name.endswith(suffix):
            continue
        family = (
            sample_name[: -len(suffix)] if suffix else sample_name
        )
        if family in types:
            return family, suffix
    return None, ""


def openmetrics_snapshot(
    metrics: dict[str, dict[str, Any]],
    health_report: Any = None,
) -> str:
    """The export-module hook for a scrape endpoint: live (or
    recorded) metrics merged with health gauges, as OpenMetrics text.

    ``health_report`` is an optional
    :class:`~repro.observability.health.HealthReport`; its gauges ride
    along so one scrape carries both run metrics and grid SLO state.
    """
    extra = None
    if health_report is not None:
        from repro.observability.health import health_metrics

        extra = health_metrics(health_report)
    return to_openmetrics(metrics, extra=extra)


# -- snapshots ---------------------------------------------------------------


def write_snapshot(obs: Instrumentation, directory: str | Path) -> Path:
    """Persist spans + metrics from one run under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_text(directory / SPANS_FILE, spans_to_jsonl(obs.tracer))
    atomic_write_text(
        directory / METRICS_FILE,
        json.dumps(obs.metrics.to_dict(), sort_keys=True, indent=2) + "\n",
    )
    return directory


def read_snapshot(
    directory: str | Path,
) -> tuple[list[dict[str, Any]], dict[str, dict]]:
    """Load ``(spans, metrics_dict)`` from a snapshot."""
    directory = Path(directory)
    spans_path = directory / SPANS_FILE
    metrics_path = directory / METRICS_FILE
    spans = (
        spans_from_jsonl(spans_path.read_text()) if spans_path.exists() else []
    )
    metrics = (
        json.loads(metrics_path.read_text()) if metrics_path.exists() else {}
    )
    return spans, metrics
