"""An aborted ``import_snapshot`` is undone, on every backend.

The import writes in per-kind batches; each imported key goes through
the transaction's undo log like any other put, so a transaction that
raises around the import leaves the store, the derivation graph and the
indexes as they were — and a reopened file tree finds nothing either.
"""

from __future__ import annotations

import pytest

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.durability.journal import IntentJournal, replay_into

CHAIN = """
TR t( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/t";
}
DV d1->t( o=@{output:"b"}, i=@{input:"a"} );
DV d2->t( o=@{output:"c"}, i=@{input:"b"} );
"""

EMPTY = dict.fromkeys(
    ("dataset", "replica", "transformation", "derivation", "invocation"), 0
)


@pytest.fixture(params=["memory", "sqlite", "filetree"])
def fresh(request, tmp_path):
    """``(catalog, reopen)``: an empty catalog and, for the persistent
    backends, a second handle over the same storage."""
    if request.param == "memory":
        yield MemoryCatalog(), None
    elif request.param == "sqlite":
        path = str(tmp_path / "vdc.db")
        catalog = SQLiteCatalog(path)
        yield catalog, lambda: SQLiteCatalog(path)
        catalog.close()
    else:
        yield (
            FileTreeCatalog(tmp_path / "vdc"),
            lambda: FileTreeCatalog(tmp_path / "vdc"),
        )


def snapshot() -> dict:
    return MemoryCatalog().define(CHAIN).export_snapshot()


def test_aborted_import_is_undone(fresh):
    catalog, reopen = fresh
    with pytest.raises(RuntimeError):
        with catalog.transaction():
            catalog.import_snapshot(snapshot())
            assert catalog.counts()["derivation"] == 2
            assert sorted(catalog.derivation_graph().producer_names("c")) == [
                "d2"
            ]
            raise RuntimeError("abort")
    assert catalog.counts() == EMPTY
    assert list(catalog.derivation_graph().producer_names("c")) == []
    assert catalog.producers_of("c") == []
    assert catalog.consumers_of("b") == []
    assert catalog.transformation_names() == []
    assert not catalog.has_dataset("a")
    if reopen is not None:
        again = reopen()
        assert again.counts() == EMPTY
        assert again.producers_of("c") == []


def test_import_into_a_populated_catalog_is_undone_to_its_state(fresh):
    catalog, reopen = fresh
    catalog.define(CHAIN)
    before = catalog.export_snapshot()
    changed = snapshot()
    changed["derivation"]["d2"]["actuals"]["o"]["dataset"] = "c2"
    changed["dataset"]["c2"] = {**changed["dataset"]["c"], "name": "c2"}
    with pytest.raises(RuntimeError):
        with catalog.transaction():
            catalog.import_snapshot(changed)
            assert [dv.name for dv in catalog.producers_of("c2")] == ["d2"]
            raise RuntimeError("abort")
    assert catalog.export_snapshot() == before
    assert [dv.name for dv in catalog.producers_of("c")] == ["d2"]
    assert catalog.producers_of("c2") == []
    if reopen is not None:
        assert reopen().export_snapshot() == before


def test_a_committed_import_stays(fresh):
    catalog, reopen = fresh
    with catalog.transaction():
        catalog.import_snapshot(snapshot())
    assert catalog.counts()["derivation"] == 2
    assert [dv.name for dv in catalog.producers_of("c")] == ["d2"]
    if reopen is not None:
        assert [dv.name for dv in reopen().producers_of("c")] == ["d2"]


def test_a_journaled_import_is_journaled_and_undone(tmp_path):
    """With an intent journal, an import is journaled op by op: a
    replay reproduces a committed one, and an aborted one nets out."""
    catalog = FileTreeCatalog(tmp_path / "vdc")
    journal = IntentJournal(tmp_path / "journal", keep_history=True)
    catalog.attach_journal(journal)
    with pytest.raises(RuntimeError):
        with catalog.transaction():
            catalog.import_snapshot(snapshot())
            raise RuntimeError("abort")
    assert catalog.counts() == EMPTY
    with catalog.transaction():
        catalog.import_snapshot(snapshot())
    replayed = MemoryCatalog()
    replay_into(replayed, journal.directory)
    assert replayed.export_snapshot() == catalog.export_snapshot()
    assert [dv.name for dv in replayed.producers_of("c")] == ["d2"]
    journal.close()
