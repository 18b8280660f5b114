"""SQLite-backed virtual data catalog.

This is the "relational database" realization of the VDC (§3, Appendix
B).  The physical schema keeps one table per object kind with the full
payload as a JSON document plus the columns the catalog's hot queries
need (name keys, dataset back-references), mirroring how the Chimera
prototype mapped its schema onto an RDBMS.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Optional

from repro.catalog.base import VirtualDataCatalog

_SCHEMA = """
CREATE TABLE IF NOT EXISTS dataset (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS replica (
    key TEXT PRIMARY KEY,
    dataset_name TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS replica_dataset ON replica (dataset_name);
CREATE TABLE IF NOT EXISTS transformation (
    key TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    version TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS transformation_name ON transformation (name);
CREATE TABLE IF NOT EXISTS derivation (
    key TEXT PRIMARY KEY,
    transformation TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS derivation_tr ON derivation (transformation);
CREATE TABLE IF NOT EXISTS invocation (
    key TEXT PRIMARY KEY,
    derivation_name TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS invocation_dv ON invocation (derivation_name);
"""


class SQLiteCatalog(VirtualDataCatalog):
    """A catalog persisted in a SQLite database file.

    ``path=":memory:"`` (the default) gives a private throwaway
    database, which is what the benchmark harness uses to measure the
    relational backend without disk noise.
    """

    def __init__(
        self,
        path: str = ":memory:",
        authority: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(authority=authority, **kwargs)
        # check_same_thread=False: the parallel executor records
        # provenance from pool threads; the catalog's own RLock already
        # serializes every operation, so SQLite never sees concurrent use.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._in_bulk = False
        if path != ":memory:":
            # WAL keeps readers unblocked during commits and turns the
            # per-mutation fsync into a sequential log append.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._rebuild_indexes()

    def close(self) -> None:
        """Close the underlying database connection."""
        self._conn.close()

    # -- transaction hooks -------------------------------------------------

    def _txn_begin(self) -> None:
        # Hold the implicit sqlite transaction open until the outermost
        # exit: per-mutation _commit() calls become no-ops, so the whole
        # batch becomes durable with one COMMIT — or vanishes with one
        # ROLLBACK — exactly the native all-or-nothing the base class
        # otherwise emulates with its journal.
        self._in_bulk = True

    def _txn_commit(self) -> None:
        self._in_bulk = False
        self._conn.commit()

    def _txn_abort(self) -> bool:
        self._in_bulk = False
        self._conn.rollback()
        return True

    def _commit(self) -> None:
        if not self._in_bulk:
            self._conn.commit()

    def __enter__(self) -> "SQLiteCatalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- storage primitives ------------------------------------------------

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        doc = json.dumps(payload)
        if kind == "dataset":
            self._conn.execute(
                "INSERT OR REPLACE INTO dataset (key, payload) VALUES (?, ?)",
                (key, doc),
            )
        elif kind == "replica":
            self._conn.execute(
                "INSERT OR REPLACE INTO replica (key, dataset_name, payload)"
                " VALUES (?, ?, ?)",
                (key, payload["dataset_name"], doc),
            )
        elif kind == "transformation":
            self._conn.execute(
                "INSERT OR REPLACE INTO transformation"
                " (key, name, version, payload) VALUES (?, ?, ?, ?)",
                (key, payload["name"], payload["version"], doc),
            )
        elif kind == "derivation":
            self._conn.execute(
                "INSERT OR REPLACE INTO derivation"
                " (key, transformation, payload) VALUES (?, ?, ?)",
                (key, payload["transformation"], doc),
            )
        elif kind == "invocation":
            self._conn.execute(
                "INSERT OR REPLACE INTO invocation"
                " (key, derivation_name, payload) VALUES (?, ?, ?)",
                (key, payload["derivation_name"], doc),
            )
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self._commit()

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        row = self._conn.execute(
            f"SELECT payload FROM {kind} WHERE key = ?", (key,)  # noqa: S608
        ).fetchone()
        return json.loads(row[0]) if row else None

    def _store_delete(self, kind: str, key: str) -> None:
        self._conn.execute(f"DELETE FROM {kind} WHERE key = ?", (key,))  # noqa: S608
        self._commit()

    def _store_put_many(self, kind: str, items: list[tuple[str, dict]]) -> None:
        if not items:
            return
        docs = [(key, json.dumps(payload)) for key, payload in items]
        if kind == "dataset":
            self._conn.executemany(
                "INSERT OR REPLACE INTO dataset (key, payload) VALUES (?, ?)",
                docs,
            )
        elif kind == "replica":
            self._conn.executemany(
                "INSERT OR REPLACE INTO replica (key, dataset_name, payload)"
                " VALUES (?, ?, ?)",
                [
                    (key, payload["dataset_name"], doc)
                    for (key, payload), (_, doc) in zip(items, docs)
                ],
            )
        elif kind == "transformation":
            self._conn.executemany(
                "INSERT OR REPLACE INTO transformation"
                " (key, name, version, payload) VALUES (?, ?, ?, ?)",
                [
                    (key, payload["name"], payload["version"], doc)
                    for (key, payload), (_, doc) in zip(items, docs)
                ],
            )
        elif kind == "derivation":
            self._conn.executemany(
                "INSERT OR REPLACE INTO derivation"
                " (key, transformation, payload) VALUES (?, ?, ?)",
                [
                    (key, payload["transformation"], doc)
                    for (key, payload), (_, doc) in zip(items, docs)
                ],
            )
        elif kind == "invocation":
            self._conn.executemany(
                "INSERT OR REPLACE INTO invocation"
                " (key, derivation_name, payload) VALUES (?, ?, ?)",
                [
                    (key, payload["derivation_name"], doc)
                    for (key, payload), (_, doc) in zip(items, docs)
                ],
            )
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self._commit()

    def _store_keys(self, kind: str) -> list[str]:
        rows = self._conn.execute(f"SELECT key FROM {kind}")  # noqa: S608
        return [row[0] for row in rows]

    def _store_has(self, kind: str, key: str) -> bool:
        row = self._conn.execute(
            f"SELECT 1 FROM {kind} WHERE key = ?", (key,)  # noqa: S608
        ).fetchone()
        return row is not None
