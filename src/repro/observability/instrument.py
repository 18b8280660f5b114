"""The shared instrumentation handle threaded through the stack.

One :class:`Instrumentation` object bundles a :class:`Tracer` and a
:class:`MetricsRegistry` and travels from :class:`~repro.system.
VirtualDataSystem` down through catalog, planner, scheduler, executors
and the simulated grid, so one ``materialize`` call produces one
coherent span tree and one metric namespace.

Every instrumented class defaults to :data:`NULL` — a no-op
instrumentation whose span context manager and metric methods cost a
couple of attribute lookups — so existing call sites keep working
unchanged and uninstrumented runs stay fast.

Metric naming convention (see docs/ARCHITECTURE.md · Observability):
dotted lowercase paths, ``<layer>.<subject>[.<unit>]``, e.g.
``catalog.ops``, ``scheduler.step.queue_seconds``,
``grid.transfer.bytes``.  Span names use the same layering:
``vds.materialize``, ``planner.plan``, ``scheduler.step``.
"""

from __future__ import annotations

import weakref
from contextlib import nullcontext
from typing import Any, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NullTracer, Tracer


class Instrumentation:
    """A tracer plus a metrics registry with convenience shorthands."""

    #: False on the null instance; hot paths check this before paying
    #: for ``time.perf_counter`` or label construction.
    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional :class:`~repro.observability.recorder.FlightRecorder`
        #: — when attached, the instrumented executors/scheduler write
        #: their run stream through it.  The handle rides on the same
        #: object that already travels catalog → planner → executor →
        #: grid, so attaching one never changes a constructor signature.
        self.recorder: Optional[Any] = None
        #: Optional :class:`~repro.observability.progress.ProgressSink`
        #: fed by executors/scheduler for the live ``--progress`` ticker.
        self.progress: Optional[Any] = None
        #: Optional :class:`~repro.observability.profiler.
        #: SamplingProfiler` — when attached, :meth:`phase` attributes
        #: sampled stacks to lifecycle phases (generate/plan/schedule/
        #: execute/analyze).
        self.profiler: Optional[Any] = None

    # -- tracing shorthands -------------------------------------------------

    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    def record(self, name: str, **kwargs: Any):
        return self.tracer.record(name, **kwargs)

    def event(self, name: str, **attrs: Any) -> None:
        self.tracer.add_event(name, **attrs)

    def adopt(self, parent: Any):
        """Pool-boundary handoff: make ``parent`` the current span."""
        return self.tracer.adopt(parent)

    def phase(self, name: str):
        """Mark a lifecycle phase for the sampling profiler.

        A no-op context manager unless a profiler is attached, so
        phase marks cost nothing on unprofiled runs.
        """
        if self.profiler is None:
            return nullcontext()
        return self.profiler.phase(name)

    # -- metric shorthands --------------------------------------------------

    def count(
        self, name: str, amount: float = 1, help: str = "", **labels: Any
    ) -> None:
        self.metrics.counter(name, help=help).inc(amount, **labels)

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        self.metrics.histogram(name, help=help, buckets=buckets).observe(
            value, **labels
        )

    def gauge(
        self, name: str, value: float, help: str = "", **labels: Any
    ) -> None:
        self.metrics.gauge(name, help=help).set(value, **labels)

    # -- wiring -------------------------------------------------------------

    def bind_simulator(self, simulator: Any) -> None:
        """Give spans a sim-time clock (``simulator.now``), held weakly:
        the simulator holds this instrumentation (no clock once it is
        gone)."""
        ref = weakref.ref(simulator)
        self.tracer.bind_clock(lambda: getattr(ref(), "now", None))

    def attach_recorder(self, recorder: Any) -> None:
        """Route this run's stream through a flight recorder."""
        self.recorder = recorder

    def attach_progress(self, sink: Any) -> None:
        """Feed a progress sink from the executors/scheduler."""
        self.progress = sink

    def attach_profiler(self, profiler: Any) -> None:
        """Attribute sampled stacks to phases marked via :meth:`phase`."""
        self.profiler = profiler

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()


class NullInstrumentation(Instrumentation):
    """The do-nothing default; shared singleton :data:`NULL`."""

    enabled = False

    def __init__(self):
        super().__init__(tracer=NullTracer(), metrics=MetricsRegistry())

    def count(self, name, amount=1, help="", **labels):  # type: ignore[override]
        pass

    def observe(self, name, value, help="", buckets=None, **labels):  # type: ignore[override]
        pass

    def gauge(self, name, value, help="", **labels):  # type: ignore[override]
        pass

    def event(self, name, **attrs):  # type: ignore[override]
        pass

    def bind_simulator(self, simulator):  # type: ignore[override]
        pass

    def attach_recorder(self, recorder):  # type: ignore[override]
        # The NULL singleton is shared process-wide; never mutate it.
        pass

    def attach_progress(self, sink):  # type: ignore[override]
        pass

    def attach_profiler(self, profiler):  # type: ignore[override]
        pass


#: Shared no-op instance used as the default by every instrumented class.
NULL = NullInstrumentation()
