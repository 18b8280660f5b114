"""Cold paths hold the working set, not the store.

A catalog open, the journal scan and fsck's flight-record check read
whole stores and whole files; each must stream what it reads and keep
only what it answers with.  Run with ``-s`` to see the measured
figures (the CI perf job does).
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.durability.journal import IntentJournal
from repro.durability.recovery import RecoveryManager
from repro.executor.local import LocalExecutor
from repro.observability.recorder import FlightRecorder

CHAINS = 12

PIPELINE = """
TR make( output o ) {
  argument stdout = ${output:o};
  exec = "py:make";
}
TR copy( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "py:copy";
}
""" + "".join(
    f'DV mk{i}->make( o=@{{output:"base{i}.txt"}} );\n'
    f'DV cp{i}->copy( o=@{{output:"derived{i}.txt"}}, '
    f'i=@{{input:"base{i}.txt"}} );\n'
    for i in range(CHAINS)
)


def _materialize_all(catalog, sandbox) -> None:
    executor = LocalExecutor(catalog.define(PIPELINE), sandbox)
    executor.register("py:make", lambda ctx: ctx.write_output("o", "bytes"))
    executor.register(
        "py:copy",
        lambda ctx: ctx.write_output("o", ctx.read_input("i").upper()),
    )
    for i in range(CHAINS):
        executor.materialize(f"derived{i}.txt")


def _indexes(catalog) -> tuple:
    """What an open rebuilds: the graph's four maps, replica and
    invocation indexes, normalized for comparison."""

    def plain(mapping) -> dict:
        return {key: sorted(value) for key, value in mapping.items() if value}

    indexes = catalog._indexes
    return (
        *(plain(m) for m in catalog.derivation_graph().adjacency()),
        plain(indexes.replicas_of),
        plain(indexes.invocations_of),
    )


BACKENDS = {
    "sqlite": lambda tmp_path: SQLiteCatalog(str(tmp_path / "vdc.db")),
    "filetree": lambda tmp_path: FileTreeCatalog(tmp_path / "vdc"),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_an_open_pins_no_document(tmp_path, backend):
    """Reopening a populated document catalog leaves the record cache
    empty, and rebuilds the writer's graph and indexes."""
    open_catalog = BACKENDS[backend]
    writer = open_catalog(tmp_path)
    _materialize_all(writer, tmp_path / "sandbox")
    expected = _indexes(writer)
    assert expected[4] and expected[5]  # replicas and invocations exist

    reopened = open_catalog(tmp_path)
    stats = reopened.cache_stats()
    print(
        f"\n{backend} open of {sum(reopened.counts().values())} objects: "
        f"record cache {stats}"
    )
    assert stats["size"] == 0
    assert _indexes(reopened) == expected
    for catalog in (writer, reopened):
        if backend == "sqlite":
            catalog.close()


def test_the_analyzer_reads_each_derivation_once_after_an_open(tmp_path):
    """What the open no longer caches, the analyzer's cold solve reads
    once per derivation: the graph decodes and keeps it, and the
    staleness check digests that record instead of the document."""
    writer = FileTreeCatalog(tmp_path / "vdc")
    _materialize_all(writer, tmp_path / "sandbox")
    expected = writer.live_analyzer().diagnostics()

    reopened = FileTreeCatalog(tmp_path / "vdc")
    reads: Counter = Counter()
    store_get = reopened._store_get

    def counting(kind, key):
        reads[kind, key] += 1
        return store_get(kind, key)

    reopened._store_get = counting
    assert reopened.live_analyzer().diagnostics() == expected
    derivation_reads = [
        count for (kind, _), count in reads.items() if kind == "derivation"
    ]
    assert len(derivation_reads) == 2 * CHAINS
    assert max(derivation_reads) == 1


def _fsck_workspace(root, txns: int, events: int) -> RecoveryManager:
    """A small catalog beside a journal of ``txns`` committed
    transactions after one of ``txns`` ops (a ``define``), and one
    flight record of ``events`` event lines."""
    journal = IntentJournal(root / "journal")
    filler = "x" * 600

    def put(txn, i):
        journal.record(
            txn, "put", "dataset", f"d{i}",
            payload={"name": f"d{i}", "note": filler},
            prev={"name": f"d{i}", "note": filler[:300]},
        )

    define = journal.begin("define")
    for i in range(txns):
        put(define, i)
    journal.commit(define, txns)
    for i in range(txns):
        txn = journal.begin("commit")
        put(txn, i)
        journal.commit(txn, 1)
    journal.close()
    recorder = FlightRecorder.start(root / "runs", run_id="run-1")
    for i in range(events):
        recorder.event("retry", step=f"s{i}", attempt=i, detail=filler[:80])
    recorder.finalize(status="ok")
    catalog = MemoryCatalog()
    _materialize_all(catalog, root / "sandbox")
    return RecoveryManager(
        catalog,
        sandbox_dir=root / "sandbox",
        journal_dir=root / "journal",
        runs_dir=root / "runs",
    )


def _fsck_peak(recovery: RecoveryManager) -> int:
    recovery.fsck()  # one-time costs (lazy imports, decoder state)
    tracemalloc.start()
    try:
        report = recovery.fsck()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.clean, report.render()
    return peak


def test_fsck_peak_does_not_grow_with_journal_and_record_length(tmp_path):
    small = _fsck_peak(_fsck_workspace(tmp_path / "small", 150, 500))
    large = _fsck_peak(_fsck_workspace(tmp_path / "large", 600, 2000))
    print(
        f"\nfsck traced peak: {small / 1024:.0f} KiB with a journal of "
        f"151 committed txns (300 ops) and a 502-line record, "
        f"{large / 1024:.0f} KiB at 4x"
    )
    assert large <= small * 1.1 + (32 << 10)
