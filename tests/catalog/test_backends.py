"""Backend-equivalence tests: memory, sqlite and filetree must behave
identically for every catalog operation (they share all semantics in
the base class; these tests pin that contract)."""

import pytest

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import DatasetArg, Derivation
from repro.core.descriptors import FileDescriptor
from repro.core.invocation import Invocation, ResourceUsage
from repro.core.naming import VDPRef
from repro.core.replica import Replica
from repro.core.types import DatasetType
from repro.errors import (
    DuplicateEntryError,
    NotFoundError,
    TypeConformanceError,
)
from tests.conftest import DIAMOND_VDL, FIG1_VDL


class TestDatasets:
    def test_add_get(self, any_catalog):
        ds = Dataset(name="foo", dataset_type=DatasetType(content="CMS"))
        any_catalog.add_dataset(ds)
        got = any_catalog.get_dataset("foo")
        assert got.name == "foo"
        assert got.dataset_type.content == "CMS"

    def test_duplicate_rejected(self, any_catalog):
        any_catalog.add_dataset(Dataset(name="foo"))
        with pytest.raises(DuplicateEntryError):
            any_catalog.add_dataset(Dataset(name="foo"))

    def test_replace(self, any_catalog):
        any_catalog.add_dataset(Dataset(name="foo"))
        updated = Dataset(
            name="foo", descriptor=FileDescriptor(path="/d/foo", size=1)
        )
        any_catalog.add_dataset(updated, replace=True)
        assert not any_catalog.get_dataset("foo").is_virtual

    def test_missing_raises(self, any_catalog):
        with pytest.raises(NotFoundError):
            any_catalog.get_dataset("nope")

    def test_remove(self, any_catalog):
        any_catalog.add_dataset(Dataset(name="foo"))
        any_catalog.remove_dataset("foo")
        assert not any_catalog.has_dataset("foo")
        with pytest.raises(NotFoundError):
            any_catalog.remove_dataset("foo")

    def test_names_sorted(self, any_catalog):
        for name in ("zz", "aa", "mm"):
            any_catalog.add_dataset(Dataset(name=name))
        assert any_catalog.dataset_names() == ["aa", "mm", "zz"]

    def test_attributes_survive(self, any_catalog):
        ds = Dataset(name="foo", attributes={"quality": "raw", "runs": 3})
        any_catalog.add_dataset(ds)
        got = any_catalog.get_dataset("foo")
        assert got.attributes.get("quality") == "raw"
        assert got.attributes.get("runs") == 3


class TestReplicas:
    def test_add_and_lookup_by_dataset(self, any_catalog):
        rep = Replica(dataset_name="foo", location="anl", size=10)
        any_catalog.add_replica(rep)
        found = any_catalog.replicas_of("foo")
        assert [r.replica_id for r in found] == [rep.replica_id]
        assert found[0].location == "anl"

    def test_duplicate_rejected(self, any_catalog):
        rep = Replica(dataset_name="foo", location="anl")
        any_catalog.add_replica(rep)
        with pytest.raises(DuplicateEntryError):
            any_catalog.add_replica(rep)

    def test_remove_updates_index(self, any_catalog):
        rep = Replica(dataset_name="foo", location="anl")
        any_catalog.add_replica(rep)
        any_catalog.remove_replica(rep.replica_id)
        assert any_catalog.replicas_of("foo") == []

    def test_multiple_replicas(self, any_catalog):
        a = Replica(dataset_name="foo", location="anl")
        b = Replica(dataset_name="foo", location="uc")
        any_catalog.add_replica(a)
        any_catalog.add_replica(b)
        assert {r.location for r in any_catalog.replicas_of("foo")} == {
            "anl", "uc",
        }


class TestTransformations:
    def test_vdl_define_and_get(self, any_catalog):
        any_catalog.define(FIG1_VDL)
        tr = any_catalog.get_transformation("prog1")
        assert tr.executable == "/usr/bin/prog1"

    def test_versions(self, any_catalog):
        any_catalog.define('TR t@1.0( output o ) { exec = "/old"; }')
        any_catalog.define('TR t@2.0( output o ) { exec = "/new"; }')
        assert any_catalog.get_transformation("t").executable == "/new"
        assert any_catalog.get_transformation("t", "1.0").executable == "/old"

    def test_duplicate_version_rejected(self, any_catalog):
        any_catalog.define('TR t( output o ) { exec = "/a"; }')
        with pytest.raises(DuplicateEntryError):
            any_catalog.define('TR t( output o ) { exec = "/b"; }')

    def test_remove(self, any_catalog):
        any_catalog.define('TR t( output o ) { exec = "/a"; }')
        any_catalog.remove_transformation("t", "1.0")
        assert not any_catalog.has_transformation("t")

    def test_missing_raises(self, any_catalog):
        with pytest.raises(NotFoundError):
            any_catalog.get_transformation("nope")


class TestDerivations:
    def test_auto_declares_datasets(self, any_catalog):
        any_catalog.define(FIG1_VDL)
        assert any_catalog.has_dataset("foo")
        assert any_catalog.has_dataset("fnn")
        assert any_catalog.get_dataset("foo").producer == "dfoo"
        assert any_catalog.get_dataset("fnn").producer is None

    def test_producer_consumer_indexes(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        assert [d.name for d in any_catalog.producers_of("final")] == ["a1"]
        assert [d.name for d in any_catalog.consumers_of("raw1")] == ["s1"]
        assert any_catalog.producers_of("nothere") == []

    def test_validation_against_transformation(self, any_catalog):
        any_catalog.define(FIG1_VDL)
        bad = Derivation(
            name="bad",
            transformation=VDPRef("prog1", kind="transformation"),
            actuals={"Y": DatasetArg("out", "output")},  # X missing
        )
        with pytest.raises(Exception):
            any_catalog.add_derivation(bad)

    def test_type_conformance_checked(self, any_catalog):
        any_catalog.define(
            "TR typed( output o : SDSS, input i : CMS ) "
            '{ exec = "/bin/typed"; }'
        )
        any_catalog.add_dataset(
            Dataset(name="wrong", dataset_type=DatasetType(content="UChicago"))
        )
        bad = Derivation(
            name="bad",
            transformation=VDPRef("typed", kind="transformation"),
            actuals={
                "o": DatasetArg("out", "output"),
                "i": DatasetArg("wrong", "input"),
            },
        )
        with pytest.raises(TypeConformanceError):
            any_catalog.add_derivation(bad)

    def test_remote_transformation_tolerated(self, any_catalog):
        dv = Derivation(
            name="remote",
            transformation=VDPRef(
                "srch", authority="w.edu", kind="transformation"
            ),
            actuals={"x": DatasetArg("data", "input")},
        )
        any_catalog.add_derivation(dv)  # no local validation possible
        assert any_catalog.get_derivation("remote").transformation.authority == "w.edu"

    def test_remove_updates_indexes(self, any_catalog):
        any_catalog.define(FIG1_VDL)
        any_catalog.remove_derivation("dfoo")
        assert any_catalog.producers_of("foo") == []


class TestInvocations:
    def test_add_and_query(self, any_catalog):
        any_catalog.define(FIG1_VDL)
        inv = Invocation(
            derivation_name="dfoo",
            usage=ResourceUsage(cpu_seconds=20.0, wall_seconds=20.0),
        )
        any_catalog.add_invocation(inv)
        got = any_catalog.invocations_of("dfoo")
        assert len(got) == 1
        assert got[0].usage.cpu_seconds == 20.0

    def test_duplicate_rejected(self, any_catalog):
        inv = Invocation(derivation_name="d")
        any_catalog.add_invocation(inv)
        with pytest.raises(DuplicateEntryError):
            any_catalog.add_invocation(inv)


class TestPersistence:
    def test_filetree_survives_reopen(self, tmp_path):
        root = tmp_path / "vdc"
        first = FileTreeCatalog(root, authority="a.example")
        first.define(DIAMOND_VDL)
        first.add_replica(Replica(dataset_name="final", location="anl"))
        reopened = FileTreeCatalog(root, authority="a.example")
        assert reopened.counts() == first.counts()
        assert [d.name for d in reopened.producers_of("final")] == ["a1"]
        assert len(reopened.replicas_of("final")) == 1

    def test_sqlite_file_survives_reopen(self, tmp_path):
        path = str(tmp_path / "vdc.db")
        with SQLiteCatalog(path, authority="a.example") as first:
            first.define(DIAMOND_VDL)
            counts = first.counts()
        with SQLiteCatalog(path, authority="a.example") as reopened:
            assert reopened.counts() == counts
            assert [d.name for d in reopened.consumers_of("sim1")] == ["a1"]

    def test_snapshot_round_trip(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        from repro.catalog.memory import MemoryCatalog

        other = MemoryCatalog()
        other.import_snapshot(any_catalog.export_snapshot())
        assert other.counts() == any_catalog.counts()
        assert [d.name for d in other.producers_of("final")] == ["a1"]

    def test_export_vdl_reimportable(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        from repro.catalog.memory import MemoryCatalog

        other = MemoryCatalog().define(any_catalog.export_vdl())
        assert other.counts()["transformation"] == 3
        assert other.counts()["derivation"] == 5


class TestNotifications:
    def test_events_fired(self, any_catalog):
        events = []
        any_catalog.subscribe(lambda *e: events.append(e))
        any_catalog.add_dataset(Dataset(name="x"))
        any_catalog.remove_dataset("x")
        assert ("put", "dataset", "x") in events
        assert ("delete", "dataset", "x") in events

    def test_unsubscribe(self, any_catalog):
        events = []
        listener = lambda *e: events.append(e)  # noqa: E731
        any_catalog.subscribe(listener)
        any_catalog.unsubscribe(listener)
        any_catalog.add_dataset(Dataset(name="x"))
        assert events == []


class TestImportReachesSubscribers:
    """``import_snapshot`` writes in batches and then announces every
    key on the ordinary event stream, so subscribers the catalog does
    not know by name follow it (it used to refresh only the catalog's
    own fast paths, leaving everyone else stale)."""

    CHAIN = (
        "TR emit( output o ) {\n"
        '  argument stdout = ${output:o};\n  exec = "/bin/emit";\n}\n'
        "TR copy( output o, input i ) {\n"
        '  argument = ${input:i}" "${output:o};\n  exec = "/bin/cp";\n}\n'
        'DV d0->emit( o=@{output:"ds0"} );\n'
        'DV d1->copy( o=@{output:"ds1"}, i=@{input:"ds0"} );\n'
        'DV d2->copy( o=@{output:"ds2"}, i=@{input:"ds1"} );\n'
        'DV d3->copy( o=@{output:"ds3"}, i=@{input:"ds2"} );\n'
    )

    def test_federated_index_sees_imported_objects(self, any_catalog):
        from repro.catalog.federation import FederatedIndex
        from repro.catalog.memory import MemoryCatalog

        source = MemoryCatalog().define(DIAMOND_VDL)
        index = FederatedIndex("live-index")
        index.attach(any_catalog)
        assert len(index) == 0
        any_catalog.import_snapshot(source.export_snapshot())
        imported = len(index)
        assert imported == sum(
            source.counts()[kind]
            for kind in ("dataset", "transformation", "derivation")
        )
        assert index.refresh() == imported  # a full rescan agrees

    def test_incremental_planner_sees_imported_producer(self, any_catalog):
        from repro.catalog.memory import MemoryCatalog
        from repro.planner.dag import Planner
        from repro.planner.request import MaterializationRequest

        any_catalog.define(self.CHAIN)
        planner = Planner(any_catalog, incremental=True)
        request = MaterializationRequest(targets=("ds3",), reuse="never")
        assert sorted(planner.plan(request).steps) == ["d0", "d1", "d2", "d3"]
        # A second producer of the target that sorts first and needs
        # only ds0: a fresh planner picks it over d3.
        addition = MemoryCatalog().define(
            self.CHAIN.split("DV d1")[0]
            + 'DV a3->copy( o=@{output:"ds3"}, i=@{input:"ds0"} );\n'
        )
        snapshot = addition.export_snapshot()
        del snapshot["dataset"]["ds3"]  # keep the destination's record
        any_catalog.import_snapshot(snapshot)
        fresh = sorted(Planner(any_catalog).plan(request).steps)
        assert fresh == ["a3", "d0"]
        assert sorted(planner.plan(request).steps) == fresh

    def test_import_replaces_cached_payloads(self, any_catalog):
        from repro.catalog.memory import MemoryCatalog

        any_catalog.define(DIAMOND_VDL)
        assert any_catalog.get_dataset("final").attributes.get("grade") is None
        source = MemoryCatalog().define(DIAMOND_VDL)
        final = source.get_dataset("final")
        final.attributes.set("grade", "gold")
        source.add_dataset(final, replace=True)
        any_catalog.import_snapshot(source.export_snapshot())
        assert any_catalog.get_dataset("final").attributes.get("grade") == "gold"

    def test_import_advances_id_allocators(self, any_catalog):
        from repro.catalog.memory import MemoryCatalog

        source = MemoryCatalog()
        ahead = int(Replica(dataset_name="probe", location="x").replica_id[4:])
        replica = Replica(
            dataset_name="raw", location="anl",
            replica_id=f"rep-{ahead + 1000:08d}",
        )
        source.add_replica(replica)
        any_catalog.import_snapshot(source.export_snapshot())
        assert [r.replica_id for r in any_catalog.replicas_of("raw")] == [
            replica.replica_id
        ]
        assert Replica(dataset_name="raw", location="uc").replica_id > (
            replica.replica_id
        )


class TestLegacySqliteSchema:
    """Older files carry a ``derivation_io`` edge table that was only
    ever written.  It is no longer created or maintained; a file that
    has it must still open and work."""

    LEGACY = """
    CREATE TABLE derivation_io (
        derivation TEXT NOT NULL,
        dataset TEXT NOT NULL,
        direction TEXT NOT NULL,
        PRIMARY KEY (derivation, dataset, direction)
    );
    CREATE INDEX derivation_io_ds ON derivation_io (dataset);
    """

    def test_new_files_have_no_edge_table(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "new.db")
        with SQLiteCatalog(path) as catalog:
            catalog.define(DIAMOND_VDL)
        tables = {
            row[0]
            for row in sqlite3.connect(path).execute(
                "SELECT name FROM sqlite_master"
            )
        }
        assert "derivation" in tables
        assert not {"derivation_io", "derivation_io_ds"} & tables

    def test_file_with_the_old_table_opens_and_works(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.db")
        with SQLiteCatalog(path) as catalog:
            catalog.define(DIAMOND_VDL)
        conn = sqlite3.connect(path)
        conn.executescript(self.LEGACY)
        conn.executemany(
            "INSERT INTO derivation_io VALUES (?, ?, ?)",
            [("s1", "raw1", "input"), ("s1", "sim1", "output")],
        )
        conn.commit()
        conn.close()
        with SQLiteCatalog(path) as catalog:
            assert [d.name for d in catalog.consumers_of("sim1")] == ["a1"]
            catalog.define('DV s3->sim( o=@{output:"sim3"}, i=@{input:"raw1"} );')
            catalog.remove_derivation("s1")
            s3 = catalog.export_snapshot()["derivation"]["s3"]
            catalog.import_snapshot({"derivation": {"s4": {**s3, "name": "s4"}}})
        with SQLiteCatalog(path) as catalog:
            assert catalog.derivation_names() == ["a1", "g1", "g2", "s2", "s3", "s4"]
            assert [d.name for d in catalog.consumers_of("raw1")] == ["s3", "s4"]
            assert catalog.producers_of("sim1") == []
