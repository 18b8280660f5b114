"""The run half of the one step path: payload in, outcome out.

Every step ``LocalExecutor`` executes — ``execute()``, the inline
lane, the thread lane, the process lane — takes the same route::

    InvocationPayload -> run_invocation -> InvocationOutcome -> commit

- The executor builds one :class:`InvocationPayload` per step: a
  picklable, self-contained description of the run (argv, environment,
  bound paths, streams, and the registered body, if any).  Nothing in
  it refers to the catalog, the executor, or a lock.
- :func:`run_invocation` — this module — executes it and returns an
  :class:`InvocationOutcome`: status, timing, byte counts, and size,
  stamp and content digest per output.  It is the only place a body is
  called or a subprocess started.
- The calling thread turns the outcome into an ``Invocation`` and
  commits it with ``repro.executor.local.commit_invocation``, one
  catalog transaction per step, on every lane.

The lanes differ only in *where* :func:`run_invocation` executes: on
the calling thread (``execute()`` and ``workers=1``), on a pool thread,
or in a :class:`WorkerPool` process — so catalog locks and
transactions never cross a thread or process boundary, and Python
bodies that compute escape the GIL on the process lane.

Only worker processes capture telemetry: called with no
instrumentation, :func:`run_invocation` records its ``worker.*`` spans,
events and failure stream tails into the outcome for the parent to
merge; in-process callers pass the no-op instrumentation and keep
their own ``executor.execute`` span.

:func:`preflight_payload` pickles a payload *before* it is sent to a
worker and, on failure, re-pickles field by field so the error names
the offending field — typically a transformation body that is a lambda
or closure instead of a module-level function.  The worker gets those
very bytes (:func:`run_pickled`), so a payload is pickled once per
step.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shlex
import subprocess
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.durability.checksum import file_digest
from repro.errors import ExecutionError

#: How many bytes of a redirected stdout/stderr file ride back to the
#: parent on failure.  Tails, not heads: the last lines of a crashed
#: tool are the diagnostic ones.
STREAM_TAIL_BYTES = 2048


@dataclass
class RunContext:
    """Everything a registered Python transformation body receives."""

    workdir: Path
    argv: tuple[str, ...]
    environment: dict[str, str]
    input_paths: dict[str, Path]
    output_paths: dict[str, Path]
    parameters: dict[str, str]
    streams: dict[str, Path]

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
    #: The file's (size, mtime_ns, inode, ctime_ns) when it was hashed:
    #: see :func:`file_stamp`.
    stamp: tuple[int, int, int, int]


def file_stamp(stat: os.stat_result) -> tuple[int, int, int, int]:
    """What a verified file must still show to be reused unhashed.

    A rewrite in place can keep the size and restore the mtime, but
    it moves the ctime, which user space cannot set; a replacement
    file also brings a new inode.
    """
    return (stat.st_size, stat.st_mtime_ns, stat.st_ino, stat.st_ctime_ns)


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
class WorkerTelemetry:
    """Everything a worker observed about one invocation, picklable.

    Workers cannot touch the parent's ``Tracer`` — they live in another
    process — so spans and events are captured into plain dataclasses
    and shipped home inside the :class:`InvocationOutcome` (the parent
    derives the ``worker.*`` metrics from the outcome itself).
    ``wall0`` is the worker's ``time.time()`` at the capture's
    ``perf_counter`` base: the parent uses it to map span offsets into
    its own ``perf_counter`` domain (wall clocks agree across processes
    on one host; ``perf_counter`` bases do not).
    """

    pid: int
    wall0: float
    spans: list[WorkerSpan] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    stdout_tail: str = ""
    stderr_tail: str = ""


class TelemetryCapture:
    """Worker-side recorder: cheap list appends, no locks, no I/O.

    Mirrors the parent ``Instrumentation`` surface (``span`` /
    ``event``) closely enough that worker code reads like executor
    code, but every call lands in the picklable
    :class:`WorkerTelemetry` instead of shared state.
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

    def event(self, name: str, **fields_: Any) -> None:
        self.telemetry.events.append(
            {"name": name, "at": self._now(), **fields_}
        )

    def capture_tails(self, streams: dict[str, str]) -> None:
        """Read the last bytes of redirected stdout/stderr files."""
        for key in ("stdout", "stderr"):
            path = streams.get(key)
            if not path:
                continue
            try:
                with open(path, "rb") as handle:
                    if os.fstat(handle.fileno()).st_size > STREAM_TAIL_BYTES:
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


def run_pickled(payload: bytes) -> InvocationOutcome:
    """:func:`run_invocation` on a payload :func:`preflight_payload`
    pickled: what the process lane submits, so a payload is pickled
    once per step."""
    return run_invocation(pickle.loads(payload))


def exit_with_parent() -> None:
    """Pool-worker initializer: a daemon thread ends the worker once it
    is re-parented, i.e. its parent died without shutting the pool
    down (SIGKILL) and will never send it work or a sentinel."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class WorkerPool:
    """The process lane's pool: ``workers`` processes, started at the
    first submission, each sent its jobs' bytes as they are over its
    own pipe by the calling thread, which blocks in
    :func:`~multiprocessing.connection.wait` for a batch of ``(name,
    result)`` pairs: no helper thread.  A worker holds up to two jobs,
    so it never waits on the parent between jobs; replies (outcomes of
    a few KiB) never fill a pipe, so no send blocks for good.  A worker
    that dies fails the job it ran, requeues the one behind it, and is
    replaced.  Forked workers hold each other's pipe ends and never see
    EOF: :meth:`close` sends an empty job as the sentinel, then joins
    for a bounded time."""

    def __init__(self, fn: Callable[[bytes], Any], workers: int):
        self._fn, self._size = fn, workers
        self._procs: dict[Connection, multiprocessing.Process] = {}
        #: Worker -> the jobs it holds, the running one first.
        self._held: dict[Connection, deque[tuple[str, bytes]]] = {}
        self._queued: deque[tuple[str, bytes]] = deque()

    def _spawn(self) -> None:
        ours, theirs = multiprocessing.Pipe()
        proc = multiprocessing.Process(target=_serve, args=(theirs, self._fn))
        proc.start()
        theirs.close()  # else a later fork holds it: no EOF on a death
        self._procs[ours] = proc
        self._held[ours] = deque()

    def _retire(self, conn: Connection) -> multiprocessing.Process:
        """Reap an exiting (or dead) worker; kill it after 5 s."""
        proc = self._procs.pop(conn)
        del self._held[conn]
        conn.close()
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join()
        return proc

    def submit(self, name: str, job: bytes) -> None:
        while len(self._procs) < self._size:
            self._spawn()
        self._queued.append((name, job))
        self._feed()

    def _feed(self) -> None:
        while self._queued:
            conn = min(self._held, key=lambda c: len(self._held[c]))
            if len(self._held[conn]) >= 2:
                return
            self._held[conn].append(self._queued.popleft())
            with suppress(OSError):  # died: wait() sees its EOF
                conn.send_bytes(self._held[conn][-1][1])

    def wait(self) -> list[tuple[str, Any]]:
        batch = []
        for conn in wait([c for c, held in self._held.items() if held]):
            held = self._held[conn]
            try:
                reply = conn.recv_bytes()
            except (EOFError, OSError):
                proc = self._retire(conn)
                self._spawn()
                name, _ = held.popleft()
                self._queued.extendleft(reversed(held))  # never started
                batch.append((name, RuntimeError(
                    f"worker {proc.pid} died (exit code {proc.exitcode})"
                )))
                continue
            batch.append((held.popleft()[0], pickle.loads(reply)))
        self._feed()
        return batch

    def close(self) -> None:
        for conn in self._procs:
            with suppress(OSError):
                conn.send_bytes(b"")
        for conn in list(self._procs):
            self._retire(conn)


def _serve(conn: Connection, fn: Callable[[bytes], Any]) -> None:
    """A worker: ``fn`` on each job's bytes, the pickled result back,
    until the empty sentinel."""
    exit_with_parent()
    while job := conn.recv_bytes():
        try:
            reply = pickle.dumps(fn(job))
        except Exception as exc:  # delivered as the job's result
            reply = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        conn.send_bytes(reply)


def run_invocation(
    payload: InvocationPayload, obs: Any = None
) -> InvocationOutcome:
    """Execute one payload: the only place a local step runs.

    Registered body or subprocess; body exceptions become failed
    outcomes; size, mtime and sha256 of every output are gathered here
    so the commit never re-reads output bytes.  With no ``obs`` (a pool
    worker process) spans, events and failure stream tails are
    captured into ``outcome.telemetry`` for the parent to merge;
    in-process callers pass the no-op instrumentation.
    """
    pid = os.getpid()
    capture = TelemetryCapture(pid) if obs is None else None
    obs = capture or obs
    outcome = InvocationOutcome(
        derivation_name=payload.derivation_name,
        status="success",
        started=time.time(),
        telemetry=capture and capture.telemetry,
    )
    clock0 = time.perf_counter()
    context = RunContext(
        workdir=Path(payload.workdir),
        argv=payload.argv,
        environment=dict(payload.environment),
        input_paths={k: Path(v) for k, v in payload.input_paths.items()},
        output_paths={k: Path(v) for k, v in payload.output_paths.items()},
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
            # One stat per file: the byte counts, the missing-output
            # check and each output's stamp all read it.
            read = [_stat(p) for p in payload.input_paths.values()]
            written = {f: _stat(p) for f, p in payload.output_paths.items()}
            outcome.bytes_read = sum(s.st_size for s in read if s)
            outcome.bytes_written = sum(
                s.st_size for s in written.values() if s
            )
        if outcome.status == "success":
            with obs.span("worker.digest", outputs=len(written)):
                for formal, path in payload.output_paths.items():
                    dataset = payload.output_datasets[formal]
                    stat = written[formal]
                    if stat is None:
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
                    outcome.outputs[formal] = OutputStat(
                        dataset=dataset,
                        path=path,
                        size=stat.st_size,
                        digest=file_digest(path),
                        stamp=file_stamp(stat),
                    )
    if capture is not None and outcome.status != "success":
        # Mark the worker's root span; keep its streams' last bytes.
        root = capture.telemetry.spans[0]
        root.status, root.error = "error", outcome.error
        capture.capture_tails(payload.streams)
    return outcome


def _stat(path: str) -> Optional[os.stat_result]:
    try:
        return os.stat(path)
    except OSError:
        return None


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
