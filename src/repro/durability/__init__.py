"""Crash consistency and durability for the virtual data grid.

The paper's virtual-data promise — any dataset can be deleted and
transparently re-derived — only holds if the catalog's provenance
record survives arbitrary failure.  This package makes the workspace
crash-consistent end to end, in the spirit of the checksum-verified,
restartable replica management of Allcock et al. (PAPERS.md):

* :mod:`repro.durability.atomic` — torn-write-free file replacement
  (exclusive temporary + ``os.replace``) shared by every on-disk
  writer, the file-tree catalog's documents included;
* :mod:`repro.durability.checksum` — content digests stamped on
  replicas at stage-out and verified on consume and during fsck;
* :mod:`repro.durability.journal` — the append-only intent journal
  that makes multi-object provenance commits all-or-nothing on
  backends without native transactions;
* :mod:`repro.durability.crashpoints` — environment-armed SIGKILL
  hooks the crash-matrix tests use to kill real processes at seeded
  points inside the commit path;
* :mod:`repro.durability.recovery` — the :class:`RecoveryManager`
  behind ``repro fsck``: reconciles catalog, workspace files, journal,
  rescue files and flight records, with deterministic ``--repair``.
"""

from repro.durability.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.durability.checksum import (
    DIGEST_PREFIX,
    file_digest,
    verify_bytes,
    verify_file,
)
from repro.durability.crashpoints import crashpoint, crashpoints_armed
from repro.durability.journal import (
    IntentJournal,
    JournalOp,
    JournalState,
    JournalTxn,
)
from repro.durability.recovery import (
    Finding,
    FsckReport,
    RecoveryManager,
)

__all__ = [
    "DIGEST_PREFIX",
    "Finding",
    "FsckReport",
    "IntentJournal",
    "JournalOp",
    "JournalState",
    "JournalTxn",
    "RecoveryManager",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "crashpoint",
    "crashpoints_armed",
    "file_digest",
    "verify_bytes",
    "verify_file",
]
