"""Tests for crash-atomic catalog transactions across all backends."""

import pytest

from repro.catalog.federation import FederatedIndex
from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.core.dataset import Dataset
from repro.core.replica import Replica
from repro.durability.journal import IntentJournal, load_journal_state
from repro.errors import UnderivableError
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest


@pytest.fixture(params=["memory", "sqlite", "filetree"])
def any_catalog(request, tmp_path):
    # An authority, so the catalog can also join a federation.
    if request.param == "memory":
        yield MemoryCatalog(authority="anl.gov")
    elif request.param == "sqlite":
        with SQLiteCatalog(
            str(tmp_path / "cat.db"), authority="anl.gov"
        ) as catalog:
            yield catalog
    else:
        yield FileTreeCatalog(tmp_path / "cat", authority="anl.gov")


class TestRollback:
    def test_exception_rolls_back_all_ops(self, any_catalog):
        any_catalog.add_dataset(Dataset(name="keep"))
        with pytest.raises(RuntimeError):
            with any_catalog.transaction(label="doomed"):
                any_catalog.add_dataset(Dataset(name="a"))
                any_catalog.add_replica(
                    Replica(dataset_name="a", location="anl")
                )
                raise RuntimeError("boom")
        assert not any_catalog.has_dataset("a")
        assert any_catalog.replicas_of("a") == []
        assert any_catalog.has_dataset("keep")

    def test_rollback_restores_replaced_payload(self, any_catalog):
        any_catalog.add_dataset(
            Dataset(name="d", attributes={"quality": "good"})
        )
        with pytest.raises(RuntimeError):
            with any_catalog.transaction():
                any_catalog.add_dataset(
                    Dataset(name="d", attributes={"quality": "bad"}),
                    replace=True,
                )
                raise RuntimeError("boom")
        assert any_catalog.get_dataset("d").attributes["quality"] == "good"

    def test_rollback_restores_deleted_entry(self, any_catalog):
        any_catalog.add_dataset(Dataset(name="d"))
        with pytest.raises(RuntimeError):
            with any_catalog.transaction():
                any_catalog.remove_dataset("d")
                raise RuntimeError("boom")
        assert any_catalog.has_dataset("d")

    def test_indexes_stay_coherent_after_rollback(self, any_catalog):
        replica = Replica(dataset_name="d", location="anl")
        with pytest.raises(RuntimeError):
            with any_catalog.transaction():
                any_catalog.add_replica(replica)
                raise RuntimeError("boom")
        # The by-dataset index must not keep a ghost of the rolled-back
        # replica; a later add of the same record must succeed cleanly.
        assert any_catalog.replicas_of("d") == []
        any_catalog.add_replica(replica)
        assert len(any_catalog.replicas_of("d")) == 1

    def test_successful_transaction_commits(self, any_catalog):
        with any_catalog.transaction(label="ok"):
            any_catalog.add_dataset(Dataset(name="a"))
            any_catalog.add_dataset(Dataset(name="b"))
        assert any_catalog.dataset_names() == ["a", "b"]

    def test_nested_transaction_joins_outer(self, any_catalog):
        with pytest.raises(RuntimeError):
            with any_catalog.transaction():
                any_catalog.add_dataset(Dataset(name="outer"))
                with any_catalog.transaction():
                    any_catalog.add_dataset(Dataset(name="inner"))
                # Inner committed from its own view, but the outer txn
                # fails: everything rolls back together.
                raise RuntimeError("boom")
        assert not any_catalog.has_dataset("outer")
        assert not any_catalog.has_dataset("inner")


class TestRollbackReachesSubscribers:
    """An abort is announced on the event stream, so subscribers the
    catalog does not know by name see it too (on SQLite the native
    rollback used to refresh only the catalog's own fast paths)."""

    VDL = """
    TR emit( output o, none tag="x" ) {
      argument = ${none:tag}" "${output:o};
      exec = "py:emit";
    }
    TR copy( output o, input i ) {
      argument = ${input:i}" "${output:o};
      exec = "py:copy";
    }
    DV mk->emit( o=@{output:"base.txt"} );
    """

    def test_federated_index_drops_aborted_objects(self, any_catalog):
        any_catalog.add_dataset(Dataset(name="kept"))
        index = FederatedIndex("live-index")
        index.attach(any_catalog)
        with pytest.raises(RuntimeError):
            with any_catalog.transaction():
                any_catalog.add_dataset(Dataset(name="ghost"))
                any_catalog.remove_dataset("kept")
                assert [e.name for e in index.find("dataset")] == ["ghost"]
                raise RuntimeError("boom")
        assert any_catalog.dataset_names() == ["kept"]
        assert [e.name for e in index.find("dataset")] == ["kept"]

    def test_incremental_planner_forgets_aborted_plan(self, any_catalog):
        any_catalog.define(self.VDL)
        planner = Planner(any_catalog, incremental=True)
        request = MaterializationRequest(targets=("top.txt",), reuse="never")
        with pytest.raises(RuntimeError):
            with any_catalog.transaction():
                any_catalog.define(
                    'DV up->copy( o=@{output:"top.txt"}, '
                    'i=@{input:"base.txt"} );'
                )
                assert sorted(planner.plan(request).steps) == ["mk", "up"]
                raise RuntimeError("boom")
        assert not any_catalog.has_derivation("up")
        # The plan cached inside the aborted transaction is not served.
        with pytest.raises(UnderivableError):
            planner.plan(request)


class TestBulk:
    def test_bulk_is_not_exception_atomic(self, any_catalog):
        # Pinned semantics: bulk() optimizes commits but does not
        # promise rollback on failure (unlike transaction()).
        with pytest.raises(RuntimeError):
            with any_catalog.bulk():
                any_catalog.add_dataset(Dataset(name="survivor"))
                raise RuntimeError("boom")
        assert any_catalog.has_dataset("survivor")


class TestJournalIntegration:
    def test_committed_txn_lands_in_journal(self, tmp_path):
        catalog = MemoryCatalog()
        catalog.attach_journal(IntentJournal(tmp_path, keep_history=True))
        with catalog.transaction(label="landing"):
            catalog.add_dataset(Dataset(name="a"))
        state = load_journal_state(tmp_path)
        assert state.clean
        assert [t.label for t in state.committed] == ["landing"]

    def test_rolled_back_txn_leaves_clean_journal(self, tmp_path):
        catalog = MemoryCatalog()
        catalog.attach_journal(IntentJournal(tmp_path, keep_history=True))
        with pytest.raises(RuntimeError):
            with catalog.transaction(label="doomed"):
                catalog.add_dataset(Dataset(name="a"))
                raise RuntimeError("boom")
        state = load_journal_state(tmp_path)
        # The rollback is journaled as compensating ops and committed,
        # so a crash after it cannot re-lose the rollback; the net
        # replay effect is zero.
        assert state.clean
        rebuilt = MemoryCatalog()
        from repro.durability.journal import replay_into

        replay_into(rebuilt, state)
        assert not rebuilt.has_dataset("a")

    def test_mutation_outside_transaction_not_journaled(self, tmp_path):
        catalog = MemoryCatalog()
        catalog.attach_journal(IntentJournal(tmp_path, keep_history=True))
        catalog.add_dataset(Dataset(name="solo"))
        state = load_journal_state(tmp_path)
        assert state.committed == [] and state.uncommitted == []


class TestSQLiteNativeRollback:
    def test_native_rollback_without_journal(self, tmp_path):
        path = str(tmp_path / "native.db")
        with SQLiteCatalog(path) as catalog:
            catalog.add_dataset(Dataset(name="keep"))
            with pytest.raises(RuntimeError):
                with catalog.transaction():
                    catalog.add_dataset(Dataset(name="lost"))
                    raise RuntimeError("boom")
            assert catalog.has_dataset("keep")
            assert not catalog.has_dataset("lost")
        # Reopen: the rollback must be durable, not just in-memory.
        with SQLiteCatalog(path) as reopened:
            assert reopened.has_dataset("keep")
            assert not reopened.has_dataset("lost")

    def test_commit_durable_across_reopen(self, tmp_path):
        path = str(tmp_path / "commit.db")
        with SQLiteCatalog(path) as catalog:
            with catalog.transaction(label="persist"):
                catalog.add_dataset(Dataset(name="a"))
                catalog.add_replica(Replica(dataset_name="a", location="x"))
        with SQLiteCatalog(path) as reopened:
            assert reopened.has_dataset("a")
            assert len(reopened.replicas_of("a")) == 1
