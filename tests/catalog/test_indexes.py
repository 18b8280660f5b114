"""Tests for the catalog fast paths: secondary indexes, the decoded-
payload cache, and bulk (deferred-commit) mutation batches.

All tests run against every backend (``any_catalog``): the fast paths
live in the base class and must not change observable behaviour.
"""

import threading

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.errors import NotFoundError
from tests.conftest import DIAMOND_VDL


class TestByTransformationIndex:
    def test_derivations_of_transformation(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        assert [
            dv.name for dv in any_catalog.derivations_of_transformation("sim")
        ] == ["s1", "s2"]
        assert [
            dv.name for dv in any_catalog.derivations_of_transformation("ana")
        ] == ["a1"]
        assert any_catalog.derivations_of_transformation("nope") == []

    def test_find_derivations_uses_index(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        found = any_catalog.find_derivations(transformation="gen")
        assert sorted(dv.name for dv in found) == ["g1", "g2"]

    def test_index_follows_removal(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        any_catalog.remove_derivation("s1")
        assert [
            dv.name for dv in any_catalog.derivations_of_transformation("sim")
        ] == ["s2"]
        # Producer/consumer indexes unlink too.
        assert any_catalog.producers_of("sim1") == []
        assert [dv.name for dv in any_catalog.consumers_of("raw1")] == []

    def test_rebuild_from_cold_store(self, tmp_path):
        """A snapshot import rebuilds every index from storage."""
        source = MemoryCatalog().define(DIAMOND_VDL)
        dest = MemoryCatalog()
        dest.import_snapshot(source.export_snapshot())
        assert [
            dv.name for dv in dest.derivations_of_transformation("sim")
        ] == ["s1", "s2"]
        assert [dv.name for dv in dest.producers_of("final")] == ["a1"]
        assert dest.transformation_names() == ["ana", "gen", "sim"]


class TestPayloadCache:
    def test_repeat_lookups_hit(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        any_catalog.get_dataset("final")
        before = any_catalog.cache_stats()["hits"]
        any_catalog.get_dataset("final")
        any_catalog.get_dataset("final")
        if isinstance(any_catalog, MemoryCatalog):
            # The store holds the records: there is no cache to hit.
            assert any_catalog.cache_stats()["hits"] == before == 0
        else:
            assert any_catalog.cache_stats()["hits"] >= before + 2
        # Derivations are served from the graph's one record each.
        assert any_catalog.get_derivation("a1") is not (
            any_catalog.get_derivation("a1")
        )
        assert any_catalog._record("derivation", "a1") is (
            any_catalog.derivation_graph().derivation("a1")
        )

    def test_mutation_invalidates(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        ds = any_catalog.get_dataset("final")
        ds.attributes.set("quality", "gold")
        any_catalog.add_dataset(ds, replace=True)
        assert (
            any_catalog.get_dataset("final").attributes.get("quality")
            == "gold"
        )

    def test_delete_invalidates(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        any_catalog.get_derivation("a1")
        any_catalog.remove_derivation("a1")
        with pytest.raises(NotFoundError):
            any_catalog.get_derivation("a1")

    def test_cached_objects_are_isolated(self, any_catalog):
        """Mutating a returned object never leaks into the cache."""
        any_catalog.define(DIAMOND_VDL)
        first = any_catalog.get_dataset("final")
        first.attributes.set("mutated", "yes")
        second = any_catalog.get_dataset("final")
        assert second.attributes.get("mutated") is None


class TestBulk:
    def test_reads_observe_writes_inside_bulk(self, any_catalog):
        with any_catalog.bulk():
            any_catalog.define(DIAMOND_VDL)
            assert any_catalog.has_derivation("a1")
            assert [
                dv.name for dv in any_catalog.producers_of("final")
            ] == ["a1"]

    def test_bulk_persists_after_exit(self, tmp_path):
        path = tmp_path / "bulk.db"
        with SQLiteCatalog(str(path)) as catalog:
            with catalog.bulk():
                catalog.define(DIAMOND_VDL)
        with SQLiteCatalog(str(path)) as reopened:
            assert reopened.derivation_names() == [
                "a1", "g1", "g2", "s1", "s2",
            ]

    def test_bulk_is_not_atomic(self, any_catalog):
        """Mutations before an exception stay applied — bulk defers
        durability work only, matching non-bulk per-op semantics."""
        with pytest.raises(RuntimeError):
            with any_catalog.bulk():
                any_catalog.define(DIAMOND_VDL)
                raise RuntimeError("boom")
        assert any_catalog.has_derivation("a1")

    def test_nesting_flushes_once_at_outermost_exit(self, tmp_path):
        path = tmp_path / "nest.db"
        with SQLiteCatalog(str(path)) as catalog:
            with catalog.bulk():
                with catalog.bulk():
                    catalog.define(DIAMOND_VDL)
                assert catalog._in_bulk  # inner exit didn't flush
            assert not catalog._in_bulk


class TestThreadSafety:
    def test_concurrent_mutation_smoke(self, any_catalog):
        """8 threads registering disjoint datasets: none lost."""
        from repro.core.dataset import Dataset

        errors = []

        def worker(base):
            try:
                for i in range(25):
                    any_catalog.add_dataset(Dataset(name=f"ds{base}_{i}"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(any_catalog.dataset_names()) == 200
