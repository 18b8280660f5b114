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

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import JournalError
from repro.observability.instrument import NULL, Instrumentation

if TYPE_CHECKING:
    from repro.catalog.base import VirtualDataCatalog

JOURNAL_VERSION = 1
JOURNAL_FILENAME = "catalog.journal"

#: Checkpoint (truncate) a fully-committed journal past this size when
#: the backing store is durable; committed history is then redundant.
CHECKPOINT_BYTES = 4 << 20

_instances_lock = threading.Lock()
_instances = 0


def _next_instance() -> int:
    """Process-unique writer nonce: two journals opened in the same
    millisecond must still mint distinct transaction ids."""
    global _instances
    with _instances_lock:
        _instances += 1
        return _instances


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
    committed: bool = False


@dataclass
class JournalState:
    """Everything a scan learned about the journal file."""

    committed: list[JournalTxn] = field(default_factory=list)
    uncommitted: list[JournalTxn] = field(default_factory=list)
    #: The final line was torn (crash mid-append); it was discarded.
    torn_tail: bool = False
    #: Set when the journal is damaged beyond the torn-tail model
    #: (an unparseable line that is not last): the file cannot be
    #: trusted and recovery should quarantine it.
    corrupt: Optional[str] = None
    lines: int = 0

    @property
    def clean(self) -> bool:
        return (
            not self.uncommitted and not self.torn_tail and not self.corrupt
        )


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
        self._handle = None
        #: Bytes in the file as far as this writer knows: its size when
        #: opened plus what was appended since.
        self._size = 0
        self._counter = 0
        self._epoch = (
            f"{int(time.time() * 1000) & 0xFFFFFF:06x}"
            f"{_next_instance():04x}"
        )

    # -- writing -------------------------------------------------------------

    def _file(self):
        if self._handle is None or self._handle.closed:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._repair_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
            self._size = os.fstat(self._handle.fileno()).st_size
        return self._handle

    def _repair_tail(self) -> None:
        """Truncate a torn final line before appending past it.

        Appending after a torn tail would bury the tear mid-file, which
        the scanner must treat as corruption; discarding it first keeps
        the torn-tail model intact.  Safe because a torn op line was by
        construction never applied to the backing store.
        """
        if not self.path.is_file():
            return
        raw = self.path.read_bytes()
        body = raw.rstrip(b"\n")
        if not body:
            return
        cut = body.rfind(b"\n")
        last = body[cut + 1 :]
        torn = not raw.endswith(b"\n")  # even a parseable tail: no newline
        if not torn:
            try:
                json.loads(last.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                torn = True
        if torn:
            with open(self.path, "r+b") as handle:
                handle.truncate(cut + 1 if cut >= 0 else 0)

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
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
        self._size = 0
        if self.path.exists():
            with open(self.path, "w", encoding="utf-8"):
                pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    # -- scanning ------------------------------------------------------------

    def scan(self) -> JournalState:
        """Reconstruct transactions from the file, tolerating a torn tail."""
        state = JournalState()
        if not self.path.is_file():
            return state
        raw_lines = [
            raw
            for raw in self.path.read_text(encoding="utf-8").splitlines()
            if raw.strip()
        ]
        state.lines = len(raw_lines)
        records: list[dict] = []
        for i, raw in enumerate(raw_lines):
            try:
                records.append(json.loads(raw))
            except json.JSONDecodeError:
                if i == len(raw_lines) - 1:
                    state.torn_tail = True
                    break
                state.corrupt = (
                    f"unparseable journal line {i + 1} of {len(raw_lines)} "
                    "(not a torn final line)"
                )
                return state
        txns: dict[str, JournalTxn] = {}
        order: list[str] = []
        for record in records:
            txn_id = record.get("txn")
            rtype = record.get("type")
            if not txn_id or rtype not in ("begin", "op", "commit"):
                state.corrupt = f"journal record without txn/type: {record}"
                return state
            txn = txns.get(txn_id)
            if txn is None:
                txn = txns[txn_id] = JournalTxn(
                    txn_id=txn_id, label=record.get("label", "")
                )
                order.append(txn_id)
            if rtype == "op":
                txn.ops.append(
                    JournalOp(
                        op=record["op"],
                        kind=record["kind"],
                        key=record["key"],
                        payload=record.get("payload"),
                        prev=record.get("prev"),
                    )
                )
            elif rtype == "commit":
                txn.committed = True
        for txn_id in order:
            txn = txns[txn_id]
            (state.committed if txn.committed else state.uncommitted).append(
                txn
            )
        return state


# -- recovery primitives -----------------------------------------------------


def _iter_rollback(txn: JournalTxn) -> Iterator[JournalOp]:
    """Ops of an uncommitted txn in undo order (newest first)."""
    return reversed(txn.ops)


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
        for op in _iter_rollback(txn):
            catalog.restore_payload(op.kind, op.key, op.prev)
            touched.append((op.kind, op.key))
    return touched


def replay_into(
    catalog: "VirtualDataCatalog", state: JournalState
) -> int:
    """Redo every committed transaction into ``catalog``.

    The reconstruction path for memory-backed runs: the backing store
    died with the process, the journal did not.  Returns the number of
    ops applied.
    """
    applied = 0
    for txn in state.committed:
        for op in txn.ops:
            if op.op == "put":
                catalog.restore_payload(op.kind, op.key, op.payload)
            else:
                catalog.restore_payload(op.kind, op.key, None)
            applied += 1
    return applied


def load_journal_state(journal_dir: str | Path) -> JournalState:
    """Scan a journal directory without constructing a writer."""
    journal = IntentJournal(journal_dir)
    try:
        return journal.scan()
    finally:
        journal.close()


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
]
