"""The run half of the one step path: payload in, outcome out.

Every step ``LocalExecutor`` executes — ``execute()``, the sequential
loop, the thread lane, the process lane — takes the same route::

    InvocationPayload -> run_invocation -> InvocationOutcome -> commit

- The executor builds one :class:`InvocationPayload` per step: a
  picklable, self-contained description of the run (argv, environment,
  bound paths, streams, and the registered body, if any).  Nothing in
  it refers to the catalog, the executor, or a lock.
- :func:`run_invocation` — this module — executes it and returns an
  :class:`InvocationOutcome`: status, timing, byte counts, and size,
  mtime and content digest per output.  It is the only place a body is
  called or a subprocess started.
- The executor turns the outcome into an ``Invocation`` and commits it
  with ``repro.executor.local.commit_invocation``, one catalog
  transaction per step.

The lanes differ only in *where* :func:`run_invocation` executes and
*which thread* commits: the calling thread for ``execute()`` and the
sequential loop; a pool thread, which then commits itself, on the
thread lane; a worker process on the process lane, whose outcomes a
single collector thread in the parent commits in completion order (so
catalog locks and transactions never cross a process boundary, and
Python bodies that compute escape the GIL).

Only worker processes capture telemetry: called with no
instrumentation, :func:`run_invocation` records its ``worker.*`` spans,
metrics and failure stream tails into the outcome for the parent to
merge; in-process callers pass the no-op instrumentation and keep
their own ``executor.execute`` span.

:func:`preflight_payload` pickles a payload *before* submission to a
process pool and, on failure, re-pickles field by field so the error
names the offending field — typically a transformation body that is a
lambda or closure instead of a module-level function.
"""

from __future__ import annotations

import os
import pickle
import shlex
import subprocess
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.durability.checksum import file_digest
from repro.errors import ExecutionError

#: How many bytes of a redirected stdout/stderr file ride back to the
#: parent on failure.  Tails, not heads: the last lines of a crashed
#: tool are the diagnostic ones.
STREAM_TAIL_BYTES = 2048


class RunContext:
    """Everything a registered Python transformation body receives."""

    def __init__(
        self,
        workdir: Path,
        argv: tuple[str, ...],
        environment: dict[str, str],
        input_paths: dict[str, Path],
        output_paths: dict[str, Path],
        parameters: dict[str, str],
        streams: dict[str, Path],
    ):
        self.workdir = workdir
        self.argv = argv
        self.environment = environment
        self.input_paths = input_paths
        self.output_paths = output_paths
        self.parameters = parameters
        self.streams = streams

    def read_input(self, formal: str) -> bytes:
        """Read the full contents of the input bound to ``formal``."""
        return self.input_paths[formal].read_bytes()

    def write_output(self, formal: str, data: bytes | str) -> None:
        """Write the output bound to ``formal``."""
        path = self.output_paths[formal]
        if isinstance(data, str):
            data = data.encode()
        path.write_bytes(data)


@dataclass
class InvocationPayload:
    """Everything :func:`run_invocation` needs to run one step.

    Paths are plain strings (not ``Path``) and all mappings are plain
    dicts so the payload pickles compactly and identically across
    start methods.  ``body`` is the registered Python callable for the
    executable, or ``None`` to run a real subprocess.
    """

    step_name: str
    derivation_name: str
    executable: str
    argv: tuple[str, ...]
    environment: dict[str, str]
    workdir: str
    input_paths: dict[str, str]
    output_paths: dict[str, str]
    #: formal -> logical dataset name (what the output's replica and
    #: a "was not written" error are filed under).
    output_datasets: dict[str, str]
    parameters: dict[str, str]
    streams: dict[str, str]
    body: Optional[Callable] = None


@dataclass
class OutputStat:
    """What the run observed about one written output file."""

    dataset: str
    path: str
    size: int
    digest: str
    mtime_ns: int


@dataclass
class WorkerSpan:
    """One completed span captured in a worker process.

    ``start``/``end`` are offsets (seconds) from the capture's
    ``perf_counter`` base; the parent rebases them into its own clock
    domain at merge time.  ``parent`` is an index into the owning
    telemetry's span list (spans are appended at open time, so a
    parent's index is always smaller than its children's), or ``None``
    for the worker-side root.
    """

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    status: str = "ok"
    error: Optional[str] = None
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass
class WorkerMetric:
    """A counter increment or histogram observation made in a worker."""

    kind: str  # "counter" | "histogram"
    name: str
    value: float
    labels: dict[str, str] = field(default_factory=dict)
    help: str = ""


@dataclass
class WorkerTelemetry:
    """Everything a worker observed about one invocation, picklable.

    Workers cannot touch the parent's ``Tracer``/``MetricsRegistry`` —
    they live in another process — so spans, metric deltas, and events
    are captured into plain dataclasses and shipped home inside the
    :class:`InvocationOutcome`.  ``wall0`` is the worker's
    ``time.time()`` at the capture's ``perf_counter`` base: the parent
    uses it to map span offsets into its own ``perf_counter`` domain
    (wall clocks agree across processes on one host; ``perf_counter``
    bases do not).
    """

    pid: int
    wall0: float
    spans: list[WorkerSpan] = field(default_factory=list)
    metrics: list[WorkerMetric] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    stdout_tail: str = ""
    stderr_tail: str = ""


class TelemetryCapture:
    """Worker-side recorder: cheap list appends, no locks, no I/O.

    Mirrors the parent ``Instrumentation`` surface (``span`` /
    ``count`` / ``observe`` / ``event``) closely enough that worker
    code reads like executor code, but every call lands in the
    picklable :class:`WorkerTelemetry` instead of shared state.
    """

    def __init__(self, pid: int) -> None:
        self._perf0 = time.perf_counter()
        self.telemetry = WorkerTelemetry(pid=pid, wall0=time.time())
        self._stack: list[int] = []

    def _now(self) -> float:
        return time.perf_counter() - self._perf0

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[WorkerSpan]:
        index = len(self.telemetry.spans)
        parent = self._stack[-1] if self._stack else None
        span = WorkerSpan(
            name=name,
            start=self._now(),
            end=0.0,
            parent=parent,
            attributes=dict(attributes),
        )
        self.telemetry.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = self._now()
            self._stack.pop()

    def count(
        self, name: str, amount: float = 1, help: str = "", **labels: str
    ) -> None:
        self.telemetry.metrics.append(
            WorkerMetric("counter", name, amount, dict(labels), help)
        )

    def observe(
        self, name: str, value: float, help: str = "", **labels: str
    ) -> None:
        self.telemetry.metrics.append(
            WorkerMetric("histogram", name, value, dict(labels), help)
        )

    def event(self, name: str, **fields_: Any) -> None:
        self.telemetry.events.append(
            {"name": name, "at": self._now(), **fields_}
        )

    def capture_tails(self, streams: dict[str, str]) -> None:
        """Read the last bytes of redirected stdout/stderr files."""
        for key in ("stdout", "stderr"):
            path = streams.get(key)
            if not path or not os.path.exists(path):
                continue
            try:
                size = os.path.getsize(path)
                with open(path, "rb") as handle:
                    if size > STREAM_TAIL_BYTES:
                        handle.seek(-STREAM_TAIL_BYTES, os.SEEK_END)
                    tail = handle.read().decode("utf-8", "replace")
            except OSError:
                continue
            setattr(self.telemetry, f"{key}_tail", tail)


@dataclass
class InvocationOutcome:
    """What running one payload produced.

    ``commit=False`` marks failures that leave no invocation record
    (missing executable, declared output never written): nothing is
    committed and the step fails with ``error`` as the message.
    ``commit=True`` failures are ordinary body failures and are
    recorded as failed invocations.  ``outputs`` is filled, in the
    payload's formal order, only on success.
    """

    step_name: str
    derivation_name: str
    status: str
    commit: bool = True
    error: Optional[str] = None
    exit_code: int = 0
    started: float = 0.0
    wall_seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    outputs: dict[str, OutputStat] = field(default_factory=dict)
    pid: int = 0
    telemetry: Optional[WorkerTelemetry] = None


def preflight_payload(payload: InvocationPayload) -> bytes:
    """Pickle a payload, attributing failures to the offending field.

    Raises :class:`ExecutionError` naming the unpicklable field so a
    lambda body (the common mistake) produces an actionable message
    instead of a raw ``PicklingError`` from pool internals.
    """
    try:
        return pickle.dumps(payload)
    except Exception as exc:
        for f in fields(payload):
            try:
                pickle.dumps(getattr(payload, f.name))
            except Exception as field_exc:
                hint = ""
                if f.name == "body":
                    hint = (
                        "; the process backend requires registered "
                        "transformation bodies to be module-level "
                        "functions (lambdas and closures cannot cross "
                        "a process boundary)"
                    )
                raise ExecutionError(
                    f"derivation {payload.derivation_name!r}: payload "
                    f"field {f.name!r} is not picklable "
                    f"({type(field_exc).__name__}: {field_exc}){hint}"
                ) from field_exc
        raise ExecutionError(
            f"derivation {payload.derivation_name!r}: payload is not "
            f"picklable ({type(exc).__name__}: {exc})"
        ) from exc


def run_invocation(
    payload: InvocationPayload, obs: Any = None
) -> InvocationOutcome:
    """Execute one payload: the only place a local step runs.

    Registered body or subprocess; body exceptions become failed
    outcomes; size, mtime and sha256 of every output are gathered here
    so the commit never re-reads output bytes.  With no ``obs`` (a pool
    worker process) spans, metrics and failure stream tails are
    captured into ``outcome.telemetry`` for the parent to merge;
    in-process callers pass the no-op instrumentation.
    """
    pid = os.getpid()
    capture = TelemetryCapture(pid) if obs is None else None
    obs = capture or obs
    outcome = InvocationOutcome(
        step_name=payload.step_name,
        derivation_name=payload.derivation_name,
        status="success",
        started=time.time(),
        pid=pid,
        telemetry=capture and capture.telemetry,
    )
    clock0 = time.perf_counter()
    input_paths = {k: Path(v) for k, v in payload.input_paths.items()}
    output_paths = {k: Path(v) for k, v in payload.output_paths.items()}
    context = RunContext(
        workdir=Path(payload.workdir),
        argv=payload.argv,
        environment=dict(payload.environment),
        input_paths=input_paths,
        output_paths=output_paths,
        parameters=dict(payload.parameters),
        streams={k: Path(v) for k, v in payload.streams.items()},
    )
    with obs.span(
        "worker.invocation",
        derivation=payload.derivation_name,
        step=payload.step_name,
        worker_pid=pid,
    ):
        try:
            with obs.span("worker.run", executable=payload.executable):
                _invoke(payload, context)
        except ExecutionError as exc:
            # Infrastructure refusals (missing executable) fail the
            # step without an invocation record.
            outcome.status = "failure"
            outcome.commit = False
            outcome.error = str(exc)
        except Exception as exc:  # body failures → failed invocations
            outcome.status = "failure"
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.exit_code = 1
        outcome.wall_seconds = time.perf_counter() - clock0
        if outcome.commit:
            outcome.bytes_read = sum(
                p.stat().st_size for p in input_paths.values() if p.exists()
            )
            outcome.bytes_written = sum(
                p.stat().st_size for p in output_paths.values() if p.exists()
            )
        if outcome.status == "success":
            with obs.span("worker.digest", outputs=len(output_paths)):
                for formal, path in output_paths.items():
                    dataset = payload.output_datasets[formal]
                    if not path.exists():
                        outcome.status = "failure"
                        outcome.commit = False
                        outcome.error = (
                            f"derivation {payload.derivation_name!r} "
                            f"succeeded but output {dataset!r} was not "
                            f"written"
                        )
                        obs.event(
                            "worker.output.missing",
                            derivation=payload.derivation_name,
                            dataset=dataset,
                        )
                        break
                    stat = path.stat()
                    outcome.outputs[formal] = OutputStat(
                        dataset=dataset,
                        path=str(path),
                        size=stat.st_size,
                        digest=file_digest(path),
                        mtime_ns=stat.st_mtime_ns,
                    )
    if capture is not None:
        _finish_capture(capture, payload, outcome)
    return outcome


def _finish_capture(
    capture: TelemetryCapture,
    payload: InvocationPayload,
    outcome: InvocationOutcome,
) -> None:
    """Record worker-side metrics and stream tails on the outcome.

    Worker metrics live in a ``worker.*`` namespace: the parent counts
    ``executor.*`` itself when it commits, so the relay must not
    double-count them.
    """
    capture.count(
        "worker.invocations",
        help="invocations executed in worker processes",
        status=outcome.status,
    )
    capture.observe(
        "worker.invocation.seconds",
        outcome.wall_seconds,
        help="worker-side wall time per invocation",
    )
    if outcome.bytes_written:
        capture.count(
            "worker.bytes_written",
            outcome.bytes_written,
            help="bytes written by worker processes",
        )
    if outcome.status != "success":
        root = capture.telemetry.spans[0]
        root.status = "error"
        root.error = outcome.error
        capture.capture_tails(payload.streams)


def _invoke(payload: InvocationPayload, context: RunContext) -> None:
    """Call the registered body, or start the real executable."""
    if payload.body is not None:
        payload.body(context)
        return
    if not os.path.exists(payload.executable):
        raise ExecutionError(
            f"executable {payload.executable!r} does not exist and no "
            f"Python body is registered for it"
        )
    # VDL argument statements are text fragments of the command line;
    # a real invocation splits them into words the way a shell would
    # (Chimera's POSIX execution model).
    words = shlex.split(" ".join(context.argv))
    streams = context.streams
    with _maybe_open(streams.get("stdin"), "rb") as stdin, _maybe_open(
        streams.get("stdout"), "wb"
    ) as stdout, _maybe_open(streams.get("stderr"), "wb") as stderr:
        completed = subprocess.run(
            [payload.executable, *words],
            stdin=stdin,
            stdout=stdout,
            stderr=stderr,
            env={**os.environ, **context.environment},
            cwd=context.workdir,
            check=False,
        )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{payload.executable} exited with {completed.returncode}"
        )


def _maybe_open(path: Optional[Path], mode: str):
    """Context manager: the opened path, or ``None`` for no path."""
    return nullcontext() if path is None else open(path, mode)
