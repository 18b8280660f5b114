"""The run-history metastore: cross-run observability (§5.3).

The flight recorder makes each run durable; this module makes the
*population* of runs queryable.  The paper's estimation loop assumes
the system learns from history, and the CMS production experience
(PAPERS.md) shows that long production chains live or die by operators
noticing per-site degradation and run-over-run regressions early —
both need an aggregate view no single ``record.jsonl`` can give.

:class:`HistoryStore` is a small SQLite database (WAL when
file-backed, the same fast-path idiom as
:class:`~repro.catalog.sqlite.SQLiteCatalog`) that ingests flight
records under ``<workspace>/runs/`` into per-run, per-attempt,
per-invocation and per-site tables:

``run``
    one row per ingested run: identity, status, clock domain,
    makespan, step/retry/fault totals, and the source file size used
    for change detection (re-ingest is idempotent; a record that grew
    since ingest — e.g. a crash later finalized — is re-read);
``attempt``
    one row per recorded step *attempt* with its site, status and
    duration — the raw material for per-site SLOs and per-step diffs;
``invocation_sample``
    (transformation, bytes_read, cpu_seconds, …) tuples of the planned
    invocations — exactly the estimator's training food, so
    :meth:`repro.estimator.cost.Estimator.train_on_history` can fit
    models over every run ever recorded;
``site_breaker``
    per-run, per-site circuit-breaker open time, reconstructed from
    the recorded ``breaker.transition`` events.

Every row comes from the rows :class:`~repro.observability.recorder.
RunRecord` decodes; nothing here reads a raw record line.  Consumers:
the run-diff/regression engine
(:mod:`repro.observability.diff`), the grid-health SLO layer
(:mod:`repro.observability.health`), and the estimator.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.observability.recorder import RunRecord, list_runs

_SCHEMA = """
CREATE TABLE IF NOT EXISTS run (
    run_id TEXT PRIMARY KEY,
    started_at REAL,
    finished_at REAL,
    status TEXT NOT NULL,
    command TEXT NOT NULL,
    clock TEXT NOT NULL,
    makespan REAL,
    steps_total INTEGER NOT NULL,
    steps_failed INTEGER NOT NULL,
    attempts INTEGER NOT NULL,
    retries INTEGER NOT NULL,
    faults INTEGER NOT NULL,
    truncated INTEGER NOT NULL,
    schema_version INTEGER NOT NULL,
    source_path TEXT NOT NULL,
    source_size INTEGER NOT NULL,
    ingested_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS run_started ON run (started_at);
CREATE TABLE IF NOT EXISTS attempt (
    run_id TEXT NOT NULL,
    step TEXT NOT NULL,
    attempt INTEGER NOT NULL,
    transformation TEXT,
    site TEXT,
    status TEXT NOT NULL,
    start REAL NOT NULL,
    end REAL NOT NULL,
    duration REAL NOT NULL,
    PRIMARY KEY (run_id, step, attempt)
);
CREATE INDEX IF NOT EXISTS attempt_tr ON attempt (transformation);
CREATE INDEX IF NOT EXISTS attempt_site ON attempt (site);
CREATE TABLE IF NOT EXISTS invocation_sample (
    run_id TEXT NOT NULL,
    ordinal INTEGER NOT NULL,
    transformation TEXT NOT NULL,
    site TEXT,
    status TEXT NOT NULL,
    wall_seconds REAL NOT NULL,
    cpu_seconds REAL NOT NULL,
    bytes_read INTEGER NOT NULL,
    bytes_written INTEGER NOT NULL,
    PRIMARY KEY (run_id, ordinal)
);
CREATE INDEX IF NOT EXISTS sample_tr ON invocation_sample (transformation);
CREATE TABLE IF NOT EXISTS site_breaker (
    run_id TEXT NOT NULL,
    site TEXT NOT NULL,
    open_seconds REAL NOT NULL,
    transitions INTEGER NOT NULL,
    PRIMARY KEY (run_id, site)
);
CREATE TABLE IF NOT EXISTS phase_profile (
    run_id TEXT NOT NULL,
    phase TEXT NOT NULL,
    seconds REAL NOT NULL,
    samples INTEGER NOT NULL,
    peak_bytes INTEGER NOT NULL,
    PRIMARY KEY (run_id, phase)
);
"""

_RUN_TABLES = (
    "run",
    "attempt",
    "invocation_sample",
    "site_breaker",
    "phase_profile",
)

class HistoryStore:
    """SQLite-backed, queryable aggregate of many recorded runs."""

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        if self.path != ":memory:":
            # Same fast-path posture as SQLiteCatalog: WAL keeps
            # readers unblocked, NORMAL turns fsyncs into log appends.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- ingestion ---------------------------------------------------------

    def is_ingested(self, record: RunRecord) -> bool:
        """Whether this exact record (same size) is already stored."""
        row = self._conn.execute(
            "SELECT source_size FROM run WHERE run_id = ?",
            (record.run_id,),
        ).fetchone()
        if row is None:
            return False
        try:
            current = record.path.stat().st_size
        except OSError:
            return True  # source gone; keep what we have
        return int(row["source_size"]) == current

    def ingest(self, record: RunRecord, force: bool = False) -> bool:
        """Ingest one parsed record; returns False when already stored.

        Idempotent: a run already ingested from an unchanged file is
        skipped; a record whose file grew since ingest (e.g. a crashed
        run later finalized) is re-ingested in place.  The whole run
        lands in one transaction.
        """
        if not force and self.is_ingested(record):
            return False
        run_id = record.run_id
        try:
            source_size = record.path.stat().st_size
        except OSError:
            source_size = 0
        cur = self._conn.cursor()
        try:
            cur.execute("BEGIN")
            for table in _RUN_TABLES:
                cur.execute(
                    f"DELETE FROM {table} WHERE run_id = ?", (run_id,)
                )
            cur.execute(
                "INSERT INTO run VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    record.meta.get("started_at"),
                    record.result.get("finished_at"),
                    record.status,
                    record.command,
                    record.clock,
                    record.makespan(),
                    len(record.plan_steps()) or len(record.step_timings()),
                    record.failures,
                    len(record.attempts),
                    record.retries,
                    record.faults,
                    int(record.truncated),
                    record.schema_version,
                    str(record.path),
                    source_size,
                    time.time(),
                ),
            )
            cur.executemany(
                "INSERT INTO attempt VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        a.step,
                        a.ordinal,
                        a.transformation,
                        a.site,
                        a.status,
                        float(a.start),
                        float(a.end),
                        a.duration,
                    )
                    for a in record.attempts
                ],
            )
            cur.executemany(
                "INSERT INTO invocation_sample VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        inv.ordinal,
                        inv.transformation,
                        inv.site,
                        inv.status,
                        inv.wall_seconds,
                        inv.cpu_seconds,
                        inv.bytes_read,
                        inv.bytes_written,
                    )
                    for inv in record.invocation_rows
                    if inv.transformation is not None
                ],
            )
            cur.executemany(
                "INSERT INTO site_breaker VALUES (?, ?, ?, ?)",
                [
                    (run_id, site, open_seconds, transitions)
                    for site, (open_seconds, transitions) in (
                        record.breaker_windows().items()
                    )
                ],
            )
            cur.executemany(
                "INSERT INTO phase_profile VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        phase,
                        stat["seconds"],
                        stat["samples"],
                        stat["peak_bytes"],
                    )
                    for phase, stat in record.phases.items()
                ],
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return True

    def ingest_dir(
        self, runs_root: str | Path, force: bool = False
    ) -> int:
        """Ingest every readable record under ``runs_root``.

        Returns the number of runs (re-)ingested; unchanged runs are
        skipped before their record is loaded in full, so calling this
        before every query is cheap.
        """
        ingested = 0
        for status in list_runs(runs_root):
            if force or not self.is_ingested(status):
                self.ingest(RunRecord.load(status.path), force=True)
                ingested += 1
        return ingested

    # -- run-level queries -------------------------------------------------

    def run_ids(self) -> list[str]:
        """All ingested run ids, oldest first."""
        return [
            row["run_id"]
            for row in self._conn.execute(
                "SELECT run_id FROM run ORDER BY started_at, run_id"
            )
        ]

    def run_row(self, run_id: str) -> Optional[dict[str, Any]]:
        row = self._conn.execute(
            "SELECT * FROM run WHERE run_id = ?", (run_id,)
        ).fetchone()
        return dict(row) if row else None

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM run").fetchone()[0]
        )

    # -- time-series / aggregate queries -----------------------------------

    def _run_filter(
        self, run_ids: Optional[Iterable[str]]
    ) -> tuple[str, list[str]]:
        if run_ids is None:
            return "", []
        ids = list(run_ids)
        marks = ",".join("?" * len(ids)) or "NULL"
        return f" AND run_id IN ({marks})", ids

    def duration_samples(
        self, run_ids: Optional[Iterable[str]] = None
    ) -> dict[str, list[float]]:
        """Successful attempt durations per transformation."""
        where, params = self._run_filter(run_ids)
        out: dict[str, list[float]] = {}
        for row in self._conn.execute(
            "SELECT transformation, duration FROM attempt "
            f"WHERE status = 'success'{where} "
            "ORDER BY run_id, step, attempt",
            params,
        ):
            out.setdefault(row["transformation"] or "?", []).append(
                float(row["duration"])
            )
        return out

    def phase_seconds(
        self, run_ids: Optional[Iterable[str]] = None
    ) -> dict[str, list[float]]:
        """Profiled per-phase wall seconds across runs.

        One sample per (run, phase); only profiled runs contribute, so
        the lists may be shorter than the run filter.  Feeds
        phase-level regression gating in ``repro regress``.
        """
        where, params = self._run_filter(run_ids)
        out: dict[str, list[float]] = {}
        for row in self._conn.execute(
            "SELECT phase, seconds FROM phase_profile "
            f"WHERE 1=1{where} ORDER BY run_id, phase",
            params,
        ):
            out.setdefault(row["phase"], []).append(
                float(row["seconds"])
            )
        return out

    def site_stats(
        self, run_ids: Optional[Iterable[str]] = None
    ) -> dict[str, dict[str, Any]]:
        """Per-site attempt totals and raw durations over ``run_ids``.

        The durations list carries *successful* attempt durations, in
        ingest order, so callers can compute percentiles; failures and
        breaker open time feed the SLO error budget.
        """
        where, params = self._run_filter(run_ids)
        stats: dict[str, dict[str, Any]] = {}

        def entry(site: str) -> dict[str, Any]:
            return stats.setdefault(
                site,
                {
                    "attempts": 0,
                    "failures": 0,
                    "durations": [],
                    "breaker_open_seconds": 0.0,
                },
            )

        for row in self._conn.execute(
            "SELECT site, status, duration FROM attempt "
            f"WHERE site IS NOT NULL{where} "
            "ORDER BY run_id, step, attempt",
            params,
        ):
            site = entry(row["site"])
            site["attempts"] += 1
            if row["status"] != "success":
                site["failures"] += 1
            else:
                site["durations"].append(float(row["duration"]))
        for row in self._conn.execute(
            "SELECT site, SUM(open_seconds) AS open_seconds "
            f"FROM site_breaker WHERE 1=1{where} GROUP BY site",
            params,
        ):
            entry(row["site"])["breaker_open_seconds"] += float(
                row["open_seconds"] or 0.0
            )
        return stats

    def training_samples(
        self,
        transformation: Optional[str] = None,
        run_ids: Optional[Iterable[str]] = None,
    ) -> dict[str, list[dict[str, Any]]]:
        """Per-transformation invocation samples for estimator training.

        Only successful invocations are returned — the same filter
        :func:`repro.estimator.cost.fit_model` applies.
        """
        where, params = self._run_filter(run_ids)
        tr_clause = ""
        if transformation is not None:
            tr_clause = " AND transformation = ?"
            params = [*params, transformation]
        out: dict[str, list[dict[str, Any]]] = {}
        for row in self._conn.execute(
            "SELECT transformation, wall_seconds, cpu_seconds, "
            "bytes_read, bytes_written FROM invocation_sample "
            f"WHERE status = 'success'{where}{tr_clause} "
            "ORDER BY run_id, ordinal",
            params,
        ):
            out.setdefault(row["transformation"], []).append(
                {
                    "wall_seconds": float(row["wall_seconds"]),
                    "cpu_seconds": float(row["cpu_seconds"]),
                    "bytes_read": int(row["bytes_read"]),
                    "bytes_written": int(row["bytes_written"]),
                }
            )
        return out
