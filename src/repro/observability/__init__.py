"""Unified observability: tracing spans + metrics across the stack.

One :class:`Instrumentation` object (a :class:`Tracer` plus a
:class:`MetricsRegistry`) threads through catalog → planner →
executor → grid so a single ``materialize`` produces one span tree
and one metric namespace.  The default everywhere is :data:`NULL`,
a no-op handle, so uninstrumented call sites pay almost nothing.

Persistent observability lives next door: the
:class:`~repro.observability.recorder.FlightRecorder` streams one
run's spans/metrics/invocations/events to an append-only JSONL record
under the workspace, and :mod:`repro.observability.analysis` turns a
loaded :class:`~repro.observability.recorder.RunRecord` into
critical-path reports, latency/throughput profiles, and Chrome
(Perfetto) traces.
"""

from repro.observability.analysis import (
    chrome_trace,
    critical_path,
    render_report,
    report_dict,
    site_profiles,
    transformation_profiles,
    validate_chrome_trace,
)
from repro.observability.diff import (
    RunDiff,
    TransformationDelta,
    diff_records,
    regression_report,
)
from repro.observability.export import (
    openmetrics_snapshot,
    read_snapshot,
    render_metrics,
    render_span_tree,
    spans_to_jsonl,
    to_openmetrics,
    validate_openmetrics,
    write_snapshot,
)
from repro.observability.health import (
    HealthReport,
    SiteHealth,
    SLOPolicy,
    grid_health,
    health_metrics,
    health_penalties,
)
from repro.observability.instrument import (
    NULL,
    Instrumentation,
    NullInstrumentation,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profiler import (
    SamplingProfiler,
    collapsed_stacks,
    hot_frames,
    render_profile,
)
from repro.observability.progress import ProgressSink, ProgressTicker
from repro.observability.recorder import (
    RECORD_SCHEMA_VERSION,
    FlightRecorder,
    RunRecord,
    find_run,
    list_runs,
    prune_runs,
)
from repro.observability.tracing import NullTracer, Span, Tracer

__all__ = [
    "NULL",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NullInstrumentation",
    "NullTracer",
    "ProgressSink",
    "ProgressTicker",
    "RECORD_SCHEMA_VERSION",
    "RunDiff",
    "RunRecord",
    "SLOPolicy",
    "SamplingProfiler",
    "SiteHealth",
    "Span",
    "Tracer",
    "TransformationDelta",
    "chrome_trace",
    "collapsed_stacks",
    "critical_path",
    "diff_records",
    "find_run",
    "grid_health",
    "health_metrics",
    "health_penalties",
    "hot_frames",
    "list_runs",
    "openmetrics_snapshot",
    "prune_runs",
    "read_snapshot",
    "regression_report",
    "render_metrics",
    "render_profile",
    "render_report",
    "render_span_tree",
    "report_dict",
    "site_profiles",
    "spans_to_jsonl",
    "to_openmetrics",
    "transformation_profiles",
    "validate_chrome_trace",
    "validate_openmetrics",
    "write_snapshot",
]
