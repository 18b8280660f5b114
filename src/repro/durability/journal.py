"""The append-only intent journal behind atomic provenance commits.

Backends without native transactions (the file-tree and in-memory
catalogs) get all-or-nothing multi-object commits from a write-ahead
undo/redo journal under ``<workspace>/journal/``:

* ``begin`` line — a transaction opens;
* one ``op`` line per mutation, carrying both the new payload (redo)
  and the payload it replaced (undo), flushed *before* the mutation is
  applied to the backing store;
* ``commit`` line — flushed and fsynced once every mutation of the
  transaction has been applied.

The crash windows all resolve deterministically:

* torn final line → the op it described was never applied (ops are
  journaled before application); the tail is discarded;
* ops without a commit marker → the transaction is rolled back by
  restoring each op's ``prev`` payload, newest first;
* commit marker present → every op was already applied; nothing to do.

For :class:`~repro.catalog.memory.MemoryCatalog`-backed runs the
backing store dies with the process, so the journal doubles as a redo
log: :func:`replay_into` reconstructs every committed provenance
transaction into a fresh catalog.

One JSON object per line, like the flight recorder, so the file is
inspectable and a crash can only ever tear the final line.

Durability model: every line is flushed to the kernel before the
corresponding store mutation, which is all process death (SIGKILL) can
threaten — buffered pages survive the process.  ``fsync`` on commit
markers extends the guarantee to power loss and kernel panics at real
I/O cost (on ordered-mode filesystems it also forces writeback of the
transaction's staged data).  The default follows the crash model this
subsystem is tested against — process kills — and can be hardened via
``REPRO_JOURNAL_FSYNC=1`` or ``IntentJournal(fsync=True)``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.errors import JournalError
from repro.observability.instrument import NULL, Instrumentation

if TYPE_CHECKING:
    from repro.catalog.base import VirtualDataCatalog

JOURNAL_VERSION = 1
JOURNAL_FILENAME = "catalog.journal"

#: Checkpoint (truncate) a fully-committed journal past this size when
#: the backing store is durable; committed history is then redundant.
CHECKPOINT_BYTES = 4 << 20

#: Bytes read per step when looking for the final line from the end.
_TAIL_WINDOW = 1 << 16

#: Process-unique writer nonces: two journals opened in the same
#: millisecond must still mint distinct transaction ids.
_instances = itertools.count(1)


@dataclass
class JournalOp:
    """One journaled mutation with undo and redo information."""

    op: str  # "put" | "delete"
    kind: str
    key: str
    #: The new payload ("put") — None for "delete".
    payload: Optional[dict] = None
    #: The payload this op replaced — None when the key was absent.
    prev: Optional[dict] = None


@dataclass
class JournalTxn:
    """One transaction as reconstructed by :meth:`IntentJournal.scan`."""

    txn_id: str
    label: str = ""
    ops: list[JournalOp] = field(default_factory=list)


@dataclass
class JournalState:
    """Everything a scan learned about the journal file.

    Committed transactions are counted, not kept: their ops were
    applied before their commit line, and :func:`replay_into` reads
    them as they stream.  Only the uncommitted ones, which recovery
    rolls back, keep their ops.
    """

    committed: int = 0
    uncommitted: list[JournalTxn] = field(default_factory=list)
    #: The final line was torn (crash mid-append); it was discarded.
    torn_tail: bool = False
    #: Set when the journal is damaged beyond the torn-tail model
    #: (an unparseable line that is not last): the file cannot be
    #: trusted and recovery should quarantine it.
    corrupt: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not (self.uncommitted or self.torn_tail or self.corrupt)


class IntentJournal:
    """Appends provenance-commit intents under ``directory``.

    Thread-safe: the catalog serializes transactions, but op records
    may arrive from pool threads via nested call paths, so every
    append holds the journal lock.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: Optional[bool] = None,
        keep_history: bool = False,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILENAME
        if fsync is None:
            fsync = os.environ.get("REPRO_JOURNAL_FSYNC", "") not in (
                "", "0", "false",
            )
        self.fsync = fsync
        #: Retain committed transactions instead of checkpointing —
        #: required when the journal is the only durable record (the
        #: memory-catalog case, where it serves as a redo log).
        self.keep_history = keep_history
        self.obs = instrumentation or NULL
        self._lock = threading.Lock()
        #: The open append handle, if any, which a drop closes.
        self._handles: list = []
        weakref.finalize(self, _close, self._handles)
        #: Bytes in the file as far as this writer knows: its size when
        #: opened plus what was appended since.
        self._size = 0
        self._counter = 0
        self._epoch = (
            f"{int(time.time() * 1000) & 0xFFFFFF:06x}"
            f"{next(_instances):04x}"
        )

    # -- writing -------------------------------------------------------------

    def _file(self):
        if not self._handles:
            self.directory.mkdir(parents=True, exist_ok=True)
            truncate_torn_tail(self.path)
            self._handles.append(open(self.path, "a", encoding="utf-8"))
            self._size = os.fstat(self._handles[0].fileno()).st_size
        return self._handles[0]

    def _append(self, record: dict, sync: bool = False) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        handle = self._file()
        handle.write(line + "\n")
        self._size += len(line) + 1  # json.dumps escapes to ASCII
        # Flush per line: a crash can only tear the final line.
        handle.flush()
        if sync and self.fsync:
            os.fsync(handle.fileno())

    def begin(self, label: str = "") -> str:
        """Open a transaction; returns its journal-unique id."""
        with self._lock:
            self._counter += 1
            txn_id = f"{self._epoch}-{os.getpid():04x}-{self._counter}"
            self._append(
                {
                    "type": "begin",
                    "txn": txn_id,
                    "label": label,
                    "version": JOURNAL_VERSION,
                }
            )
            return txn_id

    def record(
        self,
        txn_id: str,
        op: str,
        kind: str,
        key: str,
        payload: Optional[dict] = None,
        prev: Optional[dict] = None,
    ) -> None:
        """Journal one mutation intent (call *before* applying it)."""
        with self._lock:
            self._append(
                {
                    "type": "op",
                    "txn": txn_id,
                    "op": op,
                    "kind": kind,
                    "key": key,
                    "payload": payload,
                    "prev": prev,
                }
            )

    def commit(self, txn_id: str, ops: int) -> None:
        """Seal a transaction: after this line it is all-or-nothing *on*."""
        with self._lock:
            self._append(
                {"type": "commit", "txn": txn_id, "ops": ops}, sync=True
            )
            if self.obs.enabled:
                self.obs.count(
                    "durability.journal.commits",
                    help="journaled provenance transactions committed",
                )
            if not self.keep_history:
                self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Truncate a large fully-committed journal (lock held).

        Safe only because every op of every committed transaction has
        already been applied to a durable backing store before its
        commit marker was written.
        """
        if self._size >= CHECKPOINT_BYTES:
            self._truncate_locked()

    def checkpoint(self) -> None:
        """Explicitly truncate the journal (after recovery has run)."""
        with self._lock:
            self._truncate_locked()

    def _truncate_locked(self) -> None:
        _close(self._handles)
        self._size = 0
        if self.path.exists():
            with open(self.path, "w", encoding="utf-8"):
                pass

    def close(self) -> None:
        """Close the append handle (idempotent; so does a drop)."""
        with self._lock:
            _close(self._handles)

    # -- scanning ------------------------------------------------------------

    def scan(self) -> JournalState:
        """Reconstruct transactions from the file, tolerating a torn tail.

        Streams the file line by line and keeps the transactions still
        open at its end, in the order they began: a second pass, run
        only when there are some (after a crash), reads back their ops.
        No op of a committed transaction is kept.
        """
        state = JournalState()
        if not self.path.is_file():
            return state
        lines = _json_lines(self.path)
        open_txns: dict[str, JournalTxn] = {}
        for record in lines:
            if state.corrupt:
                continue  # read on: an unparseable line reports first
            txn_id = record.get("txn")
            rtype = record.get("type")
            if not txn_id or rtype not in ("begin", "op", "commit"):
                state.corrupt = f"journal record without txn/type: {record}"
            elif rtype == "commit":
                open_txns.pop(txn_id, None)
                state.committed += 1
            elif txn_id not in open_txns:
                open_txns[txn_id] = JournalTxn(txn_id, record.get("label", ""))
        state.torn_tail = lines.torn
        if lines.corrupt_at:
            state.corrupt = (
                f"unparseable journal line {lines.corrupt_at} of "
                f"{lines.count} (not a torn final line)"
            )
        if open_txns and not state.corrupt:
            for record in _json_lines(self.path):
                txn = open_txns.get(record.get("txn"))
                if txn is not None and record.get("type") == "op":
                    txn.ops.append(_op(record))
            state.uncommitted = list(open_txns.values())
        return state


def _close(handles: list) -> None:
    """Close a journal's append handle (the journal's finalizer)."""
    while handles:
        handles.pop().close()


def _json_lines(path: Path):
    # Local import: the recorder imports this package (via resilience).
    from repro.observability.recorder import JsonLines

    return JsonLines(path)


def _op(record: dict) -> JournalOp:
    return JournalOp(
        record["op"], record["kind"], record["key"],
        record.get("payload"), record.get("prev"),
    )


def truncate_torn_tail(path: Path) -> None:
    """Cut an unparseable or unterminated final line off the journal.

    A writer does so before appending: appending after a torn tail
    would bury the tear mid-file, which the scanner must treat as
    corruption.  Safe because a torn op line was by construction never
    applied to the backing store.  Reads backwards from the end a
    window at a time, so what it holds is the final line, not the file.
    """
    if not path.is_file():
        return
    with open(path, "r+b") as handle:
        pos = handle.seek(0, os.SEEK_END)
        tail = b""
        while pos > 0 and b"\n" not in tail.rstrip(b"\n"):
            step = min(_TAIL_WINDOW, pos)
            pos -= step
            handle.seek(pos)
            tail = handle.read(step) + tail
        body = tail.rstrip(b"\n")
        if not body:
            return
        cut = body.rfind(b"\n")
        torn = not tail.endswith(b"\n")  # even a parseable tail: no newline
        if not torn:
            try:
                json.loads(body[cut + 1 :].decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                torn = True
        if torn:
            handle.truncate(pos + cut + 1)


# -- recovery primitives -----------------------------------------------------


def rollback_uncommitted(
    catalog: "VirtualDataCatalog", state: JournalState
) -> list[tuple[str, str]]:
    """Undo every uncommitted transaction against ``catalog``.

    Each op's ``prev`` payload is restored (or the key deleted when it
    did not exist before).  Restores are idempotent, so it does not
    matter whether the crash happened before or after a given op was
    applied.  Returns the ``(kind, key)`` pairs touched.
    """
    touched: list[tuple[str, str]] = []
    for txn in reversed(state.uncommitted):
        for op in reversed(txn.ops):
            catalog.restore_payload(op.kind, op.key, op.prev)
            touched.append((op.kind, op.key))
    return touched


def replay_into(
    catalog: "VirtualDataCatalog", journal_dir: str | Path
) -> int:
    """Redo every committed transaction of the journal under
    ``journal_dir`` into ``catalog``.

    The reconstruction path for memory-backed runs: the backing store
    died with the process, the journal did not.  A scan finds the
    transactions that never committed; the ops of all others are then
    applied as they stream past, in the order they were journaled
    (which was the order they were applied).  Returns the number of
    ops applied; raises :class:`JournalError`, applying nothing, on a
    journal damaged beyond a torn tail.
    """
    state = load_journal_state(journal_dir)
    if state.corrupt:
        raise JournalError(state.corrupt)
    skip = {txn.txn_id for txn in state.uncommitted}
    applied = 0
    for record in _json_lines(Path(journal_dir) / JOURNAL_FILENAME):
        if record.get("type") == "op" and record.get("txn") not in skip:
            payload = record.get("payload") if record["op"] == "put" else None
            catalog.restore_payload(record["kind"], record["key"], payload)
            applied += 1
    return applied


def load_journal_state(journal_dir: str | Path) -> JournalState:
    """Scan a journal directory without opening it for writing."""
    return IntentJournal(journal_dir).scan()


def quarantine_journal(journal_dir: str | Path) -> Optional[Path]:
    """Move a corrupt journal aside (``catalog.journal.corrupt``).

    Used when a scan reports damage beyond the torn-tail model; the
    sidelined file is kept for post-mortems rather than deleted.
    """
    path = Path(journal_dir) / JOURNAL_FILENAME
    if not path.is_file():
        return None
    target = path.with_suffix(path.suffix + ".corrupt")
    os.replace(path, target)
    return target


__all__ = [
    "CHECKPOINT_BYTES",
    "IntentJournal",
    "JOURNAL_FILENAME",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalOp",
    "JournalState",
    "JournalTxn",
    "load_journal_state",
    "quarantine_journal",
    "replay_into",
    "rollback_uncommitted",
    "truncate_torn_tail",
]
