"""The workflow flight recorder: persistent per-run observability.

PR 1's spans and metrics evaporate when the process exits; the CMS
production experience (PAPERS.md) shows that operating a virtual data
grid at scale lives on *run-level* performance and audit records.  The
flight recorder captures every ``materialize``/``run`` into an
append-only JSONL file under the workspace::

    runs/<run_id>/record.jsonl

Each line is one JSON object with a ``type`` tag.  The first line is
always ``meta`` (schema version, run id, command); the stream then
interleaves, in arrival order:

``plan``
    the executed :class:`~repro.planner.dag.Plan`: steps with their
    transformation, cpu estimates, declared inputs/outputs, and the
    dependency edges (what critical-path analysis walks);
``invocation``
    one :class:`~repro.core.invocation.Invocation` with its full
    :class:`~repro.core.invocation.ResourceUsage` — the estimator's
    training data;
``step``
    one scheduler/executor step attempt with start/end stamps in its
    clock domain (``sim`` for grid runs, ``wall`` for local runs);
``event``
    point events: retries, circuit-breaker transitions, injected
    faults, straggler timeouts, breaker deferrals;
``sample``
    scheduler frontier occupancy (ready / in-flight / completed);
``span`` / ``metrics`` / ``result``
    written by :meth:`FlightRecorder.finalize`: the whole span tree,
    the final metric snapshot, and the run summary.

Writes are serialized by a lock and flushed per line, so the record
is truthful under ``workers=N`` and survives a crash mid-run (every
completed line is valid JSON).  The :class:`RunRecord` reader
reconstructs a finished (or crashed) run for post-hoc queries and is
the only decoder of the lines: analytics on top
(:mod:`repro.observability.analysis`), run diffs, regress, grid
health and the estimator read its rows.

The schema is versioned (:data:`RECORD_SCHEMA_VERSION`); readers
reject records from a future major version rather than misreading
them.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import threading
import time
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from repro.durability.atomic import atomic_write_bytes
from repro.resilience.policies import STATE_CODES

#: Bump on breaking changes to the line schema.
#:
#: - v1: meta / plan / invocation / step / event / sample / span /
#:   metrics / result lines.
#: - v2: adds the optional ``profile`` line (sampling-profiler output,
#:   written at finalize when a profiler ran).  Pure addition: v1
#:   records load under the v2 reader unchanged, with
#:   ``RunRecord.profile`` left ``None``.
RECORD_SCHEMA_VERSION = 2

#: Per-run record file under ``<workspace>/runs/<run_id>/``.
RECORD_FILENAME = "record.jsonl"

_run_counter = itertools.count(1)

_OPEN_CODE = STATE_CODES["open"]


def new_run_id(now: Optional[float] = None) -> str:
    """A workspace-unique run id: timestamp + pid + process ordinal."""
    stamp = time.strftime(
        "%Y%m%d-%H%M%S", time.localtime(now if now is not None else time.time())
    )
    return f"run-{stamp}-{os.getpid() % 0x10000:04x}{next(_run_counter):02d}"


class FlightRecorder:
    """Appends one run's observability stream to ``record.jsonl``.

    Attach it to a live :class:`~repro.observability.Instrumentation`
    (``obs.attach_recorder(recorder)``) and the instrumented executors,
    scheduler and fault injector write through it; call
    :meth:`finalize` once the run reaches a terminal state.  All
    methods are safe to call from pool threads.
    """

    def __init__(
        self,
        directory: str | Path,
        run_id: str,
        command: str = "",
        **meta: Any,
    ):
        self.run_id = run_id
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / RECORD_FILENAME
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._closed = False
        self._write(
            "meta",
            schema_version=RECORD_SCHEMA_VERSION,
            run_id=run_id,
            command=command,
            started_at=time.time(),
            pid=os.getpid(),
            **meta,
        )

    @classmethod
    def start(
        cls,
        runs_root: str | Path,
        run_id: Optional[str] = None,
        command: str = "",
        **meta: Any,
    ) -> "FlightRecorder":
        """Open a recorder at ``<runs_root>/<run_id>/record.jsonl``."""
        run_id = run_id or new_run_id()
        return cls(Path(runs_root) / run_id, run_id, command=command, **meta)

    # -- line writer ---------------------------------------------------------

    def _write(self, type_: str, **fields: Any) -> None:
        if self._closed:
            return
        fields["type"] = type_
        if "t" not in fields:
            fields["t"] = time.time()
        line = json.dumps(fields, sort_keys=True, default=str)
        with self._lock:
            if self._closed:
                return
            self._handle.write(line + "\n")
            # Flush per line: a crashed run keeps everything recorded
            # up to its last completed write.
            self._handle.flush()

    # -- recording hooks -----------------------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """A point event (retry, breaker transition, fault, timeout)."""
        self._write("event", kind=kind, **fields)

    def sample(
        self,
        ready: int,
        in_flight: int,
        completed: int,
        total: int,
        sim: Optional[float] = None,
    ) -> None:
        """One frontier occupancy sample."""
        self._write(
            "sample",
            ready=ready,
            in_flight=in_flight,
            completed=completed,
            total=total,
            sim=sim,
        )

    def plan(self, plan: Any) -> None:
        """Record the executed plan's DAG (steps + dependency edges)."""
        steps = []
        for name, step in sorted(plan.steps.items()):
            steps.append(
                {
                    "name": name,
                    "transformation": step.transformation.name,
                    "cpu_seconds": step.cpu_seconds,
                    "inputs": list(step.inputs),
                    "outputs": list(step.outputs),
                    "deps": sorted(plan.dependencies.get(name, ())),
                }
            )
        self._write(
            "plan",
            targets=list(plan.targets),
            steps=steps,
            reused=sorted(plan.reused),
            sources=sorted(plan.sources),
        )

    def invocation(self, invocation: Any) -> None:
        """Record one invocation (with its full ``ResourceUsage``)."""
        self._write("invocation", invocation=invocation.to_dict())

    def step(
        self,
        name: str,
        status: str,
        start: float,
        end: float,
        clock: str = "sim",
        **fields: Any,
    ) -> None:
        """Record one step attempt with stamps in its clock domain."""
        self._write(
            "step",
            step=name,
            status=status,
            start=start,
            end=end,
            clock=clock,
            **fields,
        )

    def profile(self, profile: dict[str, Any]) -> None:
        """Record a sampling-profiler report (schema v2).

        One line per run, written just before :meth:`finalize` by the
        CLI's ``--profile`` path; readers on schema v1 never see it.
        """
        self._write("profile", profile=profile)

    # -- finalization --------------------------------------------------------

    def finalize(
        self, obs: Any = None, status: str = "ok", **fields: Any
    ) -> None:
        """Write spans + metrics + the run summary, then close.

        Idempotent: the second call is a no-op, so ``finally`` blocks
        can call it unconditionally.
        """
        if self._closed:
            return
        if obs is not None:
            for span in obs.tracer.spans():
                self._write("span", **span.to_dict())
            self._write("metrics", metrics=obs.metrics.to_dict())
        self._write("result", status=status, finished_at=time.time(), **fields)
        self.close()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._handle.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not self._closed:
            self.finalize(status="error", error=f"{exc_type.__name__}: {exc}")
        self.close()


class JsonLines:
    """Iterate a file of JSON lines written one flushed line at a time
    (a flight record, the intent journal), parsing one line at a time.

    Such a writer can tear only the final line: an unparseable line
    ends what is yielded, and sets ``torn`` if it was the last
    non-blank line, else ``corrupt_at`` (its 1-based number).  After
    the pass ``count`` is the number of non-blank lines.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.count = 0
        self.torn = False
        self.corrupt_at = 0

    def __iter__(self) -> Iterator[Any]:
        bad = 0
        with open(self.path, encoding="utf-8") as handle:
            for raw in handle:
                if raw.isspace():
                    continue
                self.count += 1
                if bad:
                    continue  # past a tear: count, decide at the end
                try:
                    line = json.loads(raw)
                except json.JSONDecodeError:
                    bad = self.count
                    continue
                yield line
        self.torn = 0 < bad == self.count
        self.corrupt_at = 0 if self.torn else bad


class AttemptRow(NamedTuple):
    """One recorded step attempt, its transformation resolved."""

    step: str
    #: The attempt's ``attempt`` field, or its encounter order among
    #: the step's lines when the line carries none.
    ordinal: int
    #: ``None`` when no plan line names the step.
    transformation: Optional[str]
    site: Optional[str]
    status: str
    start: float
    end: float
    host: Optional[str] = None
    clock: str = "sim"

    @property
    def duration(self) -> float:
        return max(0.0, float(self.end) - float(self.start))


class InvocationRow(NamedTuple):
    """One recorded invocation, its transformation resolved."""

    derivation: str
    #: ``None`` when no plan line names the derivation (an ad-hoc
    #: ``repro run TR``): such invocations are not training data.
    transformation: Optional[str]
    site: Optional[str]
    status: str
    wall_seconds: float
    cpu_seconds: float
    bytes_read: int
    bytes_written: int


class RunRecord:
    """A parsed flight record, reconstructed for post-hoc queries.

    This is the one decoder of a record: diff and regress, grid
    health, the report, the Chrome trace and the estimator all read
    the rows built here, once per load, and never the raw lines.
    Every ``plan`` line is merged, so a recorder that saw several
    plans resolves the transformation of every step in any of them.
    A step's duration is its successful attempt's ``end - start``
    (:meth:`duration_samples`), never the span from its first
    attempt's start across backoff waits.

    ``truncated`` is set by :meth:`load` when the file ended in a torn
    final line (the signature of a crash mid-write): the valid prefix
    is still a faithful record of everything that completed.
    """

    def __init__(
        self,
        path: Path,
        lines: Iterable[dict[str, Any]],
        truncated: bool = False,
    ):
        self.path = path
        self.truncated = truncated
        self.meta: dict[str, Any] = {}
        self.spans: list[dict[str, Any]] = []
        self.invocations: list[dict[str, Any]] = []
        self.step_attempts: list[dict[str, Any]] = []
        self.events: list[dict[str, Any]] = []
        self.samples: list[dict[str, Any]] = []
        self.metrics: dict[str, dict] = {}
        self.result: dict[str, Any] = {}
        #: Sampling-profiler report (schema v2+), or ``None`` — every
        #: consumer treats the absence as "run was not profiled".
        self.profile: Optional[dict[str, Any]] = None
        self._plan_steps: dict[str, dict[str, Any]] = {}
        rows = {
            "span": self.spans,
            "step": self.step_attempts,
            "event": self.events,
            "sample": self.samples,
        }
        for line in lines:
            kind = line.get("type")
            if kind in rows:
                rows[kind].append(line)
            elif kind == "meta":
                self.meta = line
            elif kind == "plan":
                for entry in line.get("steps", ()):
                    self._plan_steps[entry["name"]] = entry
            elif kind == "invocation":
                self.invocations.append(line["invocation"])
            elif kind == "metrics":
                self.metrics = line.get("metrics", {})
            elif kind == "profile":
                self.profile = line.get("profile")
            elif kind == "result":
                self.result = line

    # -- loading -------------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "RunRecord":
        """Load a record from a ``record.jsonl`` path or a run dir.

        A torn final line (see :class:`JsonLines`) is dropped and flags
        the record ``truncated``; an unparseable line anywhere earlier
        raises :class:`ValueError` rather than misreading the file.
        """
        return cls._read(path, None)

    @classmethod
    def load_status(cls, path: str | Path) -> "RunRecord":
        """:meth:`load` keeping only the ``meta`` and ``result`` lines:
        the same verdict at the memory of one line (fsck's check)."""
        return cls._read(path, ("meta", "result"))

    @classmethod
    def _read(cls, path: str | Path, kinds) -> "RunRecord":
        path = Path(path)
        if path.is_dir():
            path = path / RECORD_FILENAME
        if not path.is_file():
            raise FileNotFoundError(f"no run record at {path}")
        reader = JsonLines(path)
        record = cls(path, (
            line for line in reader if not kinds or line.get("type") in kinds
        ))
        # Meta comes first: a lone torn line is no crash signature.
        if reader.corrupt_at or (reader.torn and reader.count == 1):
            raise ValueError(
                f"run record {path} is corrupt at line "
                f"{reader.corrupt_at or 1} (not a torn final line)"
            )
        record.truncated = reader.torn
        if record.schema_version > RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"run record {path} has schema version {record.schema_version}; "
                f"this reader understands <= {RECORD_SCHEMA_VERSION}"
            )
        return record

    # -- identity ------------------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.meta.get("run_id", self.path.parent.name)

    @property
    def schema_version(self) -> int:
        return int(self.meta.get("schema_version", 0))

    @property
    def command(self) -> str:
        return self.meta.get("command", "")

    @property
    def status(self) -> str:
        """Terminal status, or ``"crashed"`` when no result was written."""
        return self.result.get("status", "crashed")

    @property
    def finished(self) -> bool:
        return bool(self.result)

    # -- the plan ------------------------------------------------------------

    def dependencies(self) -> dict[str, set[str]]:
        return {
            name: set(entry.get("deps", ()))
            for name, entry in self._plan_steps.items()
        }

    def _transformation(self, step: str) -> Optional[str]:
        entry = self._plan_steps.get(step)
        return entry["transformation"] if entry else None

    # -- decoded rows (built once, on first use) ----------------------------

    @cached_property
    def attempts(self) -> list[AttemptRow]:
        """One row per ``step`` line, in record (= attempt) order."""
        seen: dict[str, int] = {}
        rows = []
        for line in self.step_attempts:
            step = line["step"]
            seen[step] = seen.get(step, 0) + 1
            rows.append(
                AttemptRow(
                    step=step,
                    ordinal=int(line.get("attempt", seen[step])),
                    transformation=self._transformation(step),
                    site=line.get("site"),
                    status=line["status"],
                    start=line["start"],
                    end=line["end"],
                    host=line.get("host"),
                    clock=line.get("clock", "sim"),
                )
            )
        return rows

    @cached_property
    def invocation_rows(self) -> list[InvocationRow]:
        rows = []
        for inv in self.invocations:
            name = inv.get("derivation_name", "")
            usage = inv["usage"]
            rows.append(
                InvocationRow(
                    derivation=name,
                    transformation=self._transformation(name),
                    site=inv.get("context", {}).get("site"),
                    status=inv.get("status", "?"),
                    wall_seconds=float(usage["wall_seconds"]),
                    cpu_seconds=float(usage["cpu_seconds"]),
                    bytes_read=int(usage["bytes_read"]),
                    bytes_written=int(usage["bytes_written"]),
                )
            )
        return rows

    @cached_property
    def _timings(self) -> dict[str, dict[str, Any]]:
        merged: dict[str, dict[str, Any]] = {}
        for row in self.attempts:
            entry = merged.get(row.step)
            if entry is None:
                entry = merged[row.step] = {
                    "step": row.step,
                    "transformation": row.transformation,
                    "start": row.start,
                    "end": row.end,
                    "status": row.status,
                    "clock": row.clock,
                    "site": row.site,
                    "attempts": 0,
                }
            entry["start"] = min(entry["start"], row.start)
            if row.end >= entry["end"]:
                entry["end"] = row.end
                entry["status"] = row.status
                if row.site is not None:
                    entry["site"] = row.site
            entry["attempts"] += 1
        return merged

    def step_timings(self) -> dict[str, dict[str, Any]]:
        """Step name -> merged timing over its attempts.

        ``start`` is the first attempt's start (a retried step's clock
        keeps running across backoff waits), ``end`` the last attempt's
        end, ``status`` the terminal attempt's status; ``attempts``
        counts what actually ran.  The schedule view critical-path and
        slack analysis walk; step durations for diffs come from
        :meth:`duration_samples` instead.
        """
        return self._timings

    @property
    def clock(self) -> str:
        """The clock domain of the step stamps (``wall`` if none)."""
        return self.attempts[0].clock if self.attempts else "wall"

    def duration_samples(self) -> dict[str, list[float]]:
        """Successful attempt durations per transformation.

        Ordered by step, then attempt, and keyed ``"?"`` for steps no
        plan line names.
        """
        out: dict[str, list[float]] = {}
        for row in sorted(
            self.attempts, key=lambda r: (r.step, r.ordinal)
        ):
            if row.status == "success":
                out.setdefault(row.transformation or "?", []).append(
                    row.duration
                )
        return out

    @cached_property
    def event_counts(self) -> dict[str, int]:
        """Event kind -> number of ``event`` lines, sorted by kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def retries(self) -> int:
        return sum(t["attempts"] - 1 for t in self._timings.values())

    @property
    def faults(self) -> int:
        return self.event_counts.get("fault.injected", 0)

    @property
    def failures(self) -> int:
        """Steps whose terminal attempt did not succeed."""
        return sum(
            1 for t in self._timings.values() if t["status"] != "success"
        )

    @cached_property
    def phases(self) -> dict[str, dict[str, Any]]:
        """Profiled phase -> seconds, samples, peak bytes, intervals
        (empty for an unprofiled run)."""
        if not self.profile:
            return {}
        return {
            name: {
                "seconds": float(stat.get("seconds", 0.0)),
                "samples": int(stat.get("samples", 0)),
                "peak_bytes": int(stat.get("peak_bytes", 0)),
                "intervals": stat.get("intervals", ()),
            }
            for name, stat in sorted(
                self.profile.get("phases", {}).items()
            )
        }

    def breaker_windows(self) -> dict[str, tuple[float, int]]:
        """Per-site ``(open_seconds, transitions)`` from the recorded
        ``breaker.transition`` events.

        Accumulates the time each site's breaker spent ``open``, in
        event time order; a breaker still open at the end of the
        record is charged through the last recorded sim instant.
        """
        transitions: dict[str, list[tuple[float, int]]] = {}
        last_instant = 0.0
        for event in self.events:
            sim = event.get("sim")
            if sim is not None:
                last_instant = max(last_instant, float(sim))
            if event.get("kind") != "breaker.transition":
                continue
            site = event.get("site")
            if site is None or sim is None:
                continue
            transitions.setdefault(site, []).append(
                (float(sim), int(event.get("state", 0)))
            )
        for row in self.attempts:
            if row.clock == "sim":
                last_instant = max(last_instant, float(row.end))
        out: dict[str, tuple[float, int]] = {}
        for site, seq in sorted(transitions.items()):
            seq.sort(key=lambda pair: pair[0])
            open_seconds = 0.0
            opened_at: Optional[float] = None
            for at, state in seq:
                if state == _OPEN_CODE and opened_at is None:
                    opened_at = at
                elif state != _OPEN_CODE and opened_at is not None:
                    open_seconds += at - opened_at
                    opened_at = None
            if opened_at is not None:
                open_seconds += max(0.0, last_instant - opened_at)
            out[site] = (open_seconds, len(seq))
        return out

    def makespan(self) -> Optional[float]:
        """The recorded makespan, preferring the result line."""
        if "makespan" in self.result:
            return float(self.result["makespan"])
        if not self._timings:
            return None
        start = min(t["start"] for t in self._timings.values())
        end = max(t["end"] for t in self._timings.values())
        return end - start

    def counter_total(self, name: str) -> float:
        """Sum of one recorded counter across label sets (0 if absent)."""
        entry = self.metrics.get(name)
        if not entry:
            return 0.0
        return sum(s.get("value", 0) for s in entry.get("series", ()))


#: Line types no cross-run query reads: a pruned run's compacted copy
#: drops them.
_UNQUERIED = frozenset({"span", "metrics", "sample"})


def _collect(roots: Iterable[str | Path], read) -> list[RunRecord]:
    records: dict[str, RunRecord] = {}
    for root in map(Path, roots):
        for child in sorted(root.iterdir()) if root.is_dir() else ():
            if (child / RECORD_FILENAME).is_file():
                try:
                    record = read(child)
                except (ValueError, json.JSONDecodeError, OSError):
                    continue
                records.setdefault(record.run_id, record)
    return sorted(
        records.values(),
        key=lambda r: (r.meta.get("started_at", 0), r.run_id),
    )


def list_runs(runs_root: str | Path) -> list[RunRecord]:
    """All readable run records under ``runs_root``, oldest first.

    Each is read with :meth:`RunRecord.load_status` (identity, verdict,
    no rows): load the one you need in full from its ``path``.
    """
    return _collect((runs_root,), RunRecord.load_status)


def load_runs(*roots: str | Path) -> list[RunRecord]:
    """Every readable record under ``roots``, loaded in full, oldest
    first by ``(started_at, run_id)``: what regress, health and
    estimator training read.

    A run id counts once, from the first root that has it, so a run
    pruned between its compacted copy and the removal of its raw
    record is read from the raw one.
    """
    return _collect(roots, RunRecord.load)


def _compacted(path: Path) -> bytes:
    """A record's bytes without the line types no cross-run query
    reads; a torn final line is kept, so the copy stays torn."""
    kept = []
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                kind = json.loads(raw).get("type")
            except ValueError:
                kind = None
            if kind not in _UNQUERIED:
                kept.append(raw)
    return b"".join(kept)


def prune_runs(
    runs_root: str | Path, keep: int, history_root: str | Path
) -> list[str]:
    """Delete the oldest recorded runs, keeping the ``keep`` newest.

    Retention GC for ``<workspace>/runs/``: the per-run directories
    (record, exported traces) of everything older than the ``keep``
    most recent runs are removed.  Returns the pruned run ids, oldest
    first.  Each pruned record first leaves a compacted copy (every
    line but ``span``, ``metrics`` and ``sample``) at
    ``<history_root>/<run dir>/record.jsonl``, written in one atomic
    replace, so :func:`load_runs` over both roots still counts it.
    """
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    runs = list_runs(runs_root)
    pruned: list[str] = []
    for record in runs[: max(0, len(runs) - keep)]:
        run_dir = record.path.parent
        copy_dir = Path(history_root) / run_dir.name
        copy_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(copy_dir / RECORD_FILENAME, _compacted(record.path))
        if run_dir.is_dir():
            shutil.rmtree(run_dir)
        pruned.append(record.run_id)
    return pruned


def find_run(
    runs_root: str | Path,
    run_id: str,
    among: Optional[list[RunRecord]] = None,
) -> RunRecord:
    """Load one run by id; ``"latest"`` selects the newest record.

    ``among`` is a list :func:`load_runs` already read: the run is
    picked from it rather than read again.
    """
    runs = list_runs(runs_root) if among is None else among
    if run_id == "latest":
        if not runs:
            raise FileNotFoundError(f"no recorded runs under {runs_root}")
        record = runs[-1]
    else:
        record = next((r for r in runs if r.run_id == run_id), None)
        if record is None:
            known = ", ".join(r.run_id for r in runs[-10:]) or "none"
            raise FileNotFoundError(
                f"no run record {run_id!r} under {runs_root} "
                f"(known: {known})"
            )
    return record if among is not None else RunRecord.load(record.path)
