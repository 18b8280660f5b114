"""Decode-once catalog reads and stamp-validated cost models.

The catalog decodes a stored object of any kind once and hands every
reader a copy; the estimator reuses a hint/fallback model until the
indexed history of its transformation changes.  Both are caches, so
these tests pin the two things a cache can get wrong, on every
backend: *isolation* (a reader's mutations never reach the next
reader or the store) and *invalidation* (replace, remove, a rolled-back
transaction, ``bulk()`` and ``import_snapshot`` each change what the
next reader sees — including the ``recipe.digest`` an executor would
stamp, checked against a digest computed without any cache).  The
count-based tests at the end pin that the decode really happens once.
"""

from __future__ import annotations

import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.base import KINDS, _DECODERS, _transformation_from_payload
from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import DatasetArg, Derivation
from repro.core.descriptors import FileDescriptor, VirtualDescriptor
from repro.core.invocation import ExecutionContext, Invocation
from repro.core.naming import VDPRef
from repro.core.recipe import RECIPE_DIGEST_ATTR, recipe_digest, stamp_recipe
from repro.core.replica import Replica
from repro.core.transformation import ArgumentTemplate, Transformation
from repro.core.types import ANY_DATASET, DatasetType
from repro.errors import NotFoundError
from repro.estimator.cost import Estimator
from repro.observability.recorder import RunRecord
from repro.provenance.lineage import lineage_report
from repro.workloads import canonical
from tests.catalog.test_catalog_properties import open_catalog
from tests.conftest import DIAMOND_VDL
from tests.estimator.test_estimator import invocation

SIM_V2 = """
TR sim@2.0( output o, input i ) {
  argument = "--fast";
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/sim2";
}
"""


class Boom(Exception):
    pass


def carried(obj) -> set[str]:
    """Names of the attributes an object holds, in slots or a dict."""
    slots = {s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())}
    return {s for s in slots if hasattr(obj, s)} | set(getattr(obj, "__dict__", ()))


def stamped_digest(catalog, dv_name="s1"):
    """The digest an executor would stamp for ``dv_name`` right now."""
    dv = catalog.get_derivation(dv_name)
    tr = catalog.get_transformation(dv.transformation.name)
    inv = Invocation(derivation_name=dv_name, status="success")
    stamp_recipe(inv, dv, tr)
    return inv.attributes.get(RECIPE_DIGEST_ATTR)


def uncached_digest(catalog, dv_name="s1"):
    """The same digest from a fresh XML parse and serialization."""
    dv = catalog.get_derivation(dv_name)
    tr = catalog.get_transformation(dv.transformation.name)
    payload = catalog._store_get("transformation", tr.qualified_name)
    return recipe_digest(
        dv.to_dict(), _transformation_from_payload(payload).to_dict()
    )


def replace_sim_body(catalog, executable):
    tr = catalog.get_transformation("sim")
    tr.executable = executable
    catalog.add_transformation(tr, replace=True)


class TestReaderIsolation:
    def test_mutations_do_not_reach_the_next_reader(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        pristine = any_catalog.get_transformation("ana").to_dict()
        tr = any_catalog.get_transformation("ana")
        tr.attributes.set("cost.cpu_seconds", 99.0)
        tr.executable = "/bin/other"
        tr.arguments[0].parts = ("mutated",)
        tr.arguments = tr.arguments[:1]
        tr.environment["X"] = ArgumentTemplate(parts=("y",))
        tr.profile_hints["k"] = "v"
        again = any_catalog.get_transformation("ana")
        assert again is not tr
        assert again.to_dict() == pristine
        assert again.attributes.get("cost.cpu_seconds") is None
        assert again.executable == "/bin/ana"
        assert len(again.arguments) == 2
        assert again.arguments[0].parts != ("mutated",)
        assert again.environment == {} and again.profile_hints == {}

    def test_a_mutated_copy_serializes_its_own_state(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        tr = any_catalog.get_transformation("ana")
        pristine = tr.to_dict()["xml"]
        tr.arguments[0].parts = ("mutated",)
        assert "mutated" in tr.to_dict()["xml"]
        tr.environment["X"] = ArgumentTemplate(parts=("y",))
        assert 'variable="X"' in tr.to_dict()["xml"]
        tr.version = "3.0"
        assert 'version="3.0"' in tr.to_dict()["xml"]
        assert any_catalog.get_transformation("ana").to_dict()["xml"] == (
            pristine
        )

    def test_listing_goes_through_the_same_copies(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        for tr in any_catalog.transformations():
            tr.executable = "/bin/clobbered"
        assert sorted(
            tr.executable for tr in any_catalog.transformations()
        ) == ["/bin/ana", "/bin/gen", "/bin/sim"]


class TestInvalidation:
    def test_replace_changes_object_and_digest(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        before = stamped_digest(any_catalog)
        assert before == uncached_digest(any_catalog)
        replace_sim_body(any_catalog, "/bin/sim-patched")
        assert any_catalog.get_transformation("sim").executable == (
            "/bin/sim-patched"
        )
        after = stamped_digest(any_catalog)
        assert after != before
        assert after == uncached_digest(any_catalog)

    def test_attribute_only_replace_keeps_the_digest(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        before = stamped_digest(any_catalog)
        tr = any_catalog.get_transformation("sim")
        tr.attributes.set("cost.cpu_seconds", 3.0)
        any_catalog.add_transformation(tr, replace=True)
        assert any_catalog.get_transformation("sim").attributes.get(
            "cost.cpu_seconds"
        ) == 3.0
        assert stamped_digest(any_catalog) == before

    def test_remove_falls_back_to_the_older_version(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        v1 = stamped_digest(any_catalog)
        any_catalog.define(SIM_V2)
        assert any_catalog.get_transformation("sim").version == "2.0"
        v2 = stamped_digest(any_catalog)
        assert v2 != v1 and v2 == uncached_digest(any_catalog)
        any_catalog.remove_transformation("sim", "2.0")
        assert any_catalog.get_transformation("sim").version == "1.0"
        assert any_catalog.get_transformation("sim").executable == "/bin/sim"
        assert stamped_digest(any_catalog) == v1

    def test_rolled_back_transaction_restores_both(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        before = stamped_digest(any_catalog)
        with pytest.raises(Boom):
            with any_catalog.transaction():
                replace_sim_body(any_catalog, "/bin/sim-doomed")
                inside = stamped_digest(any_catalog)
                assert any_catalog.get_transformation("sim").executable == (
                    "/bin/sim-doomed"
                )
                raise Boom
        assert inside != before
        assert any_catalog.get_transformation("sim").executable == "/bin/sim"
        assert stamped_digest(any_catalog) == before
        assert before == uncached_digest(any_catalog)


def with_gen_hint(catalog, cpu):
    tr = catalog.get_transformation("gen")
    tr.attributes.set("cost.cpu_seconds", cpu)
    catalog.add_transformation(tr, replace=True)


class TestEstimatorValidation:
    def test_hints_then_fitted_after_first_invocation(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        with_gen_hint(any_catalog, 42.0)
        estimator = Estimator(any_catalog)
        hinted = estimator.model_for("gen")
        assert not hinted.is_fitted and hinted.predict_cpu_seconds() == 42.0
        assert estimator.model_for("gen") is hinted  # reused, not rebuilt
        any_catalog.add_invocation(invocation("g1", 7.0))
        fitted = estimator.model_for("gen")
        assert fitted.is_fitted and fitted.predict_cpu_seconds() == 7.0

    def test_changed_hint_is_seen(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        with_gen_hint(any_catalog, 42.0)
        estimator = Estimator(any_catalog)
        assert estimator.model_for("gen").predict_cpu_seconds() == 42.0
        with_gen_hint(any_catalog, 5.0)
        assert estimator.model_for("gen").predict_cpu_seconds() == 5.0

    def test_rolled_back_invocation_leaves_hints(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        with_gen_hint(any_catalog, 42.0)
        estimator = Estimator(any_catalog)
        assert estimator.model_for("gen").predict_cpu_seconds() == 42.0
        with pytest.raises(Boom):
            with any_catalog.transaction():
                any_catalog.add_invocation(invocation("g1", 7.0))
                # visible inside the transaction, to anyone who asks
                assert Estimator(any_catalog).model_for("gen").is_fitted
                raise Boom
        model = estimator.model_for("gen")
        assert not model.is_fitted and model.predict_cpu_seconds() == 42.0
        assert not Estimator(any_catalog).model_for("gen").is_fitted

    def test_trained_model_is_not_displaced(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        estimator = Estimator(any_catalog)
        assert not estimator.model_for("gen").is_fitted
        record = RunRecord(
            Path("run-trained"),
            [
                {"type": "plan", "steps": [
                    {"name": "g1", "transformation": "gen"},
                ]},
                {"type": "invocation",
                 "invocation": invocation("g1", 9.0).to_dict()},
            ],
        )
        trained = estimator.train_on_history([record])["gen"]
        any_catalog.add_invocation(invocation("g2", 1.0))
        with_gen_hint(any_catalog, 42.0)
        assert estimator.model_for("gen") is trained
        assert estimator.model_for("gen").predict_cpu_seconds() == 9.0

    def test_refit_groups_by_transformation(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        any_catalog.add_invocation(invocation("g1", 4.0))
        any_catalog.add_invocation(invocation("g2", 8.0))
        any_catalog.add_invocation(invocation("s1", 3.0))
        estimator = Estimator(any_catalog)
        estimator.refit()
        assert estimator.model_for("gen").samples == 2
        assert estimator.model_for("gen").predict_cpu_seconds() == 6.0
        assert estimator.model_for("sim").samples == 1
        assert not estimator.model_for("ana").is_fitted


# -- all five kinds: isolation x invalidation --------------------------------


class Boxed:
    """One stored object of a kind: how to read it, change it through
    the catalog's API, and remove it."""

    def __init__(self, kind, key, get, edit, write, remove):
        self.kind, self.key = kind, key
        self.get, self.edit, self.write, self.remove = get, edit, write, remove

    def stored(self, catalog):
        """What a reader should get, decoded with no cache involved."""
        return _DECODERS[self.kind](
            catalog._store_get(self.kind, self.key)
        ).to_dict()


def populated(catalog) -> dict[str, Boxed]:
    """The diamond plus a replica and an invocation, each object with a
    scalar and a list-valued attribute; one :class:`Boxed` per kind."""
    catalog.define(DIAMOND_VDL)
    ds = catalog.get_dataset("raw1")
    ds.attributes.set("owner", "alice")
    ds.attributes.set("tags", ["a", "b"])
    catalog.add_dataset(ds, replace=True)
    tr = catalog.get_transformation("gen")
    tr.attributes.set("tags", ["t"])
    catalog.add_transformation(tr, replace=True)
    dv = catalog.get_derivation("g1")
    dv.environment["MODE"] = "fast"
    dv.attributes.set("tags", ["d"])
    catalog.add_derivation(dv, replace=True)
    rep = Replica(
        dataset_name="raw1",
        location="anl",
        descriptor=FileDescriptor(path="/data/raw1", size=10),
        size=10,
        digest="ab" * 16,
        attributes={"tags": ["r"]},
    )
    catalog.add_replica(rep)
    inv = Invocation(
        derivation_name="g1",
        replica_bindings={"o": rep.replica_id},
        attributes={"tags": ["i"]},
    )
    catalog.add_invocation(inv)

    def rewrite_replica(c, obj):
        c.remove_replica(obj.replica_id)
        c.add_replica(obj)

    boxes = [
        Boxed(
            "dataset", "raw1",
            lambda c: c.get_dataset("raw1"),
            lambda obj: setattr(obj, "producer", "someone-else"),
            lambda c, obj: c.add_dataset(obj, replace=True),
            lambda c: c.remove_dataset("raw1"),
        ),
        Boxed(
            "replica", rep.replica_id,
            lambda c: c.get_replica(rep.replica_id),
            lambda obj: setattr(obj, "size", 999),
            rewrite_replica,
            lambda c: c.remove_replica(rep.replica_id),
        ),
        Boxed(
            "transformation", "gen@1.0",
            lambda c: c.get_transformation("gen"),
            lambda obj: setattr(obj, "executable", "/bin/gen-patched"),
            lambda c, obj: c.add_transformation(obj, replace=True),
            lambda c: c.remove_transformation("gen", "1.0"),
        ),
        Boxed(
            "derivation", "g1",
            lambda c: c.get_derivation("g1"),
            lambda obj: obj.actuals.__setitem__("seed", "4242"),
            lambda c, obj: c.add_derivation(obj, replace=True),
            lambda c: c.remove_derivation("g1"),
        ),
        Boxed(
            "invocation", inv.invocation_id,
            lambda c: c.get_invocation(inv.invocation_id),
            lambda obj: setattr(obj, "exit_code", 3),
            # Invocations are write-once through the typed API; the
            # recovery primitive is how a stored one changes.
            lambda c, obj: c.restore_payload(
                "invocation", obj.invocation_id, obj.to_dict()
            ),
            lambda c: c.restore_payload(
                "invocation", inv.invocation_id, None
            ),
        ),
    ]
    return {box.kind: box for box in boxes}


def scribble(obj):
    """Mutate everything mutable a reader can reach on ``obj``."""
    obj.attributes.set("owner", "mallory")
    obj.attributes.get("tags").append("scribbled")  # the list, in place
    obj.attributes.history("tags")[0].value.append("history too")
    if isinstance(obj, Dataset):
        obj.producer = "mallory"
        obj.name = "renamed"
    elif isinstance(obj, Replica):
        obj.location = "elsewhere"
        obj.size = -1
    elif isinstance(obj, Derivation):
        obj.actuals["seed"] = "666"
        obj.actuals["extra"] = DatasetArg(dataset="ghost", direction="input")
        obj.environment["MODE"] = "slow"
        obj.environment["NEW"] = "1"
    elif isinstance(obj, Invocation):
        obj.replica_bindings["o"] = "rep-bogus"
        obj.replica_bindings["extra"] = "rep-bogus"
        obj.status = "failure"
    else:
        obj.executable = "/bin/other"
        obj.arguments = obj.arguments[:1]


@pytest.mark.parametrize("kind", KINDS)
class TestEveryKind:
    def test_mutations_reach_neither_reader_nor_store(self, any_catalog, kind):
        box = populated(any_catalog)[kind]
        stored = any_catalog._store_get(kind, box.key)
        pristine = box.get(any_catalog).to_dict()
        assert pristine == box.stored(any_catalog)
        first = box.get(any_catalog)
        scribble(first)
        assert first.to_dict() != pristine
        again = box.get(any_catalog)
        assert again is not first
        assert again.to_dict() == pristine
        assert again.attributes.get("tags") is not first.attributes.get("tags")
        assert any_catalog._store_get(kind, box.key) == stored
        # ... and the shared decoded form itself stayed clean.
        assert box.get(any_catalog).to_dict() == pristine

    def test_copy_carries_every_field(self, any_catalog, kind):
        """``copy()`` is written field by field; none may be missed."""
        obj = populated(any_catalog)[kind].get(any_catalog)
        clone = obj.copy()
        assert type(clone) is type(obj)
        assert carried(clone) == carried(obj)
        assert clone.to_dict() == obj.to_dict()

    def test_replace_is_seen(self, any_catalog, kind):
        box = populated(any_catalog)[kind]
        before = box.get(any_catalog).to_dict()
        edited = box.get(any_catalog)
        box.edit(edited)
        box.write(any_catalog, edited)
        assert box.get(any_catalog).to_dict() == edited.to_dict() != before
        assert box.get(any_catalog).to_dict() == box.stored(any_catalog)

    def test_remove_is_seen(self, any_catalog, kind):
        box = populated(any_catalog)[kind]
        box.get(any_catalog)  # decoded and cached
        box.remove(any_catalog)
        with pytest.raises(NotFoundError):
            box.get(any_catalog)

    def test_bulk_is_seen(self, any_catalog, kind):
        box = populated(any_catalog)[kind]
        edited = box.get(any_catalog)
        box.edit(edited)
        with any_catalog.bulk():
            box.write(any_catalog, edited)
            assert box.get(any_catalog).to_dict() == edited.to_dict()
        assert box.get(any_catalog).to_dict() == edited.to_dict()

    def test_import_snapshot_is_seen(self, any_catalog, kind):
        box = populated(any_catalog)[kind]
        edited = box.get(any_catalog)
        box.edit(edited)
        snapshot = any_catalog.export_snapshot()
        snapshot[kind][box.key] = edited.to_dict()
        any_catalog.import_snapshot(snapshot)
        assert box.get(any_catalog).to_dict() == edited.to_dict()
        assert box.get(any_catalog).to_dict() == box.stored(any_catalog)



# Invocations are write-once through the typed API, so there is no
# replace to roll back; TestListingsAreCopies rolls back an *added* one.
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "invocation"])
def test_raising_transaction_restores(any_catalog, kind):
    box = populated(any_catalog)[kind]
    before = box.get(any_catalog).to_dict()
    edited = box.get(any_catalog)
    box.edit(edited)
    with pytest.raises(Boom):
        with any_catalog.transaction():
            box.write(any_catalog, edited)
            assert box.get(any_catalog).to_dict() == edited.to_dict()
            raise Boom
    assert box.get(any_catalog).to_dict() == before
    assert before == box.stored(any_catalog)


class TestListingsAreCopies:
    def test_relationship_queries_hand_out_owned_objects(self, any_catalog):
        boxes = populated(any_catalog)
        readers = {
            "replicas_of": lambda c: c.replicas_of("raw1"),
            "invocations_of": lambda c: c.invocations_of("g1"),
            "producers_of": lambda c: c.producers_of("raw1"),
            "consumers_of": lambda c: c.consumers_of("raw1"),
            "datasets": lambda c: list(c.datasets()),
            "derivations": lambda c: list(c.derivations()),
            "find_datasets": lambda c: c.find_datasets(name_glob="raw*"),
            "find_derivations": lambda c: c.find_derivations(name_glob="g*"),
            "find_transformations": lambda c: c.find_transformations(
                name_glob="g*"
            ),
        }
        for name, read in readers.items():
            pristine = [obj.to_dict() for obj in read(any_catalog)]
            assert pristine, name
            for obj in read(any_catalog):
                obj.attributes.set("owner", "mallory")
                if obj.attributes.get("tags"):
                    obj.attributes.get("tags").append("scribbled")
            assert [o.to_dict() for o in read(any_catalog)] == pristine, name
        for box in boxes.values():
            assert box.get(any_catalog).to_dict() == box.stored(any_catalog)

    def test_rolled_back_invocation_is_gone(self, any_catalog):
        populated(any_catalog)
        before = [i.to_dict() for i in any_catalog.invocations_of("g1")]
        extra = invocation("g1", 7.0)
        with pytest.raises(Boom):
            with any_catalog.transaction():
                any_catalog.add_invocation(extra)
                assert any_catalog.get_invocation(extra.invocation_id)
                assert len(any_catalog.invocations_of("g1")) == 2
                raise Boom
        with pytest.raises(NotFoundError):
            any_catalog.get_invocation(extra.invocation_id)
        assert [
            i.to_dict() for i in any_catalog.invocations_of("g1")
        ] == before

    def test_reader_between_write_and_event_sees_the_new_derivation(
        self, any_catalog
    ):
        """``add_derivation`` declares datasets (firing their events)
        before its own put event: a subscriber reading then must get
        the derivation as stored, not a stale decoded form."""
        populated(any_catalog)
        s1 = any_catalog.get_derivation("s1")  # decoded and kept
        seen = {}

        def on_event(event, kind, key):
            if (kind, key) == ("dataset", "sim1.v2"):
                seen["replaced"] = any_catalog.get_derivation("s1").outputs()
            if (kind, key) == ("dataset", "fresh.out"):
                seen["added"] = any_catalog.get_derivation("fresh").outputs()

        any_catalog.subscribe(on_event)
        s1.actuals["o"] = DatasetArg(dataset="sim1.v2", direction="output")
        any_catalog.add_derivation(s1, replace=True)
        any_catalog.add_derivation(
            Derivation(
                name="fresh",
                transformation=s1.transformation,
                actuals={
                    "o": DatasetArg(dataset="fresh.out", direction="output"),
                    "i": DatasetArg(dataset="raw1", direction="input"),
                },
            )
        )
        assert seen == {"replaced": ("sim1.v2",), "added": ("fresh.out",)}
        assert any_catalog.get_derivation("s1").outputs() == ("sim1.v2",)
        assert any_catalog.derivation_graph().derivation("s1").outputs() == (
            "sim1.v2",
        )


# -- the write side: a put keeps the document, not the caller's object -------


@pytest.fixture(params=["memory", "sqlite", "filetree"])
def reopenable(request, tmp_path):
    """``(catalog, reopen)`` per backend: ``reopen()`` is a second
    catalog over the same storage, or None where nothing persists."""
    opened = []

    def sqlite():
        opened.append(SQLiteCatalog(str(tmp_path / "vdc.db")))
        return opened[-1]

    if request.param == "memory":
        yield MemoryCatalog(), lambda: None
    elif request.param == "sqlite":
        yield sqlite(), sqlite
    else:
        yield (
            FileTreeCatalog(tmp_path / "vdc"),
            lambda: FileTreeCatalog(tmp_path / "vdc"),
        )
    for catalog in opened:
        catalog.close()


#: ``add_*`` as a caller spells it, per kind.
ADD = {
    "dataset": lambda c, obj: c.add_dataset(obj, replace=True),
    "replica": lambda c, obj: c.add_replica(obj),
    "transformation": lambda c, obj: c.add_transformation(obj, replace=True),
    "derivation": lambda c, obj: c.add_derivation(obj, replace=True),
    "invocation": lambda c, obj: c.add_invocation(obj),
}


def to_write(catalog, kind):
    """``(obj, key, get)``: an object of ``kind`` that differs from
    anything stored, the key ``add_*`` will file it under, its reader."""
    box = populated(catalog)[kind]
    obj = box.get(catalog)
    box.edit(obj)
    key, get = box.key, box.get
    if kind == "replica":  # write-once kinds: a new id, not a replace
        obj.replica_id = key = "rep-written"
        get = lambda c: c.get_replica(key)  # noqa: E731
    elif kind == "invocation":
        obj.invocation_id = key = "inv-written"
        get = lambda c: c.get_invocation(key)  # noqa: E731
    return obj, key, get


def document(catalog, kind, key) -> str:
    """The stored document, byte for byte (key order included)."""
    return json.dumps(catalog._store_get(kind, key))


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "bulk"])
@pytest.mark.parametrize("kind", KINDS)
def test_put_keeps_nothing_of_the_callers_object(reopenable, kind, batched):
    catalog, reopen = reopenable
    obj, key, get = to_write(catalog, kind)
    written = obj.to_dict()
    if batched:
        with catalog.bulk():
            ADD[kind](catalog, obj)
            scribble(obj)  # also while the batch is still open
    else:
        ADD[kind](catalog, obj)
        scribble(obj)
    assert obj.to_dict() != written
    assert catalog._store_get(kind, key) == written
    assert get(catalog).to_dict() == written
    assert catalog._record(kind, key).to_dict() == written
    again = reopen()
    if again is not None:
        assert again._store_get(kind, key) == written
        assert get(again).to_dict() == written


@pytest.mark.parametrize("kind", KINDS)
def test_imported_snapshot_stays_the_importers(any_catalog, kind):
    box = populated(any_catalog)[kind]
    snapshot = any_catalog.export_snapshot()
    before = document(any_catalog, kind, box.key)
    any_catalog.import_snapshot(snapshot)
    snapshot[kind][box.key]["attributes"]["tags"].append("scribbled")
    snapshot[kind][box.key]["attributes"]["owner"] = "mallory"
    assert document(any_catalog, kind, box.key) == before
    assert box.get(any_catalog).to_dict() == box.stored(any_catalog)


# Invocations are write-once through the typed API: no replace to undo.
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "invocation"])
def test_raising_transaction_restores_the_very_document(reopenable, kind):
    catalog, reopen = reopenable
    box = populated(catalog)[kind]
    before = document(catalog, kind, box.key)
    with pytest.raises(Boom):
        with catalog.transaction():
            for _ in range(2):  # the second put's undo entry is the first's
                edited = box.get(catalog)
                box.edit(edited)
                box.write(catalog, edited)
                scribble(edited)
                assert document(catalog, kind, box.key) != before
            raise Boom
    assert document(catalog, kind, box.key) == before
    assert box.get(catalog).to_dict() == box.stored(catalog)
    again = reopen()
    if again is not None:
        assert document(again, kind, box.key) == before


# -- round-trip fidelity: a record is what its document decodes to ----------


def _with_history(obj):
    """``obj`` with an attribute set twice, by an author, at a time —
    history its document does not carry."""
    obj.attributes.set("owner", "alice", author="a", timestamp=1.0)
    obj.attributes.set("owner", "bob", author="b", timestamp=2.0)
    obj.attributes.set("tags", ("x", "y"))
    return obj


def awkward(catalog, kind):
    """``(obj, key, get)``: an object of ``kind`` spelled in a form its
    document does not round-trip verbatim (fresh untyped type and
    virtual descriptor instances, a kind-less callee reference, an
    unsorted environment, attribute history), stored under ``key``."""
    catalog.define(DIAMOND_VDL)
    if kind == "dataset":
        obj = Dataset(
            name="rt.ds", dataset_type=DatasetType(), descriptor=VirtualDescriptor()
        )
        return _with_history(obj), "rt.ds", lambda c: c.get_dataset("rt.ds")
    if kind == "replica":
        obj = Replica(
            dataset_name="raw1", location="anl", descriptor=VirtualDescriptor(),
            replica_id="rep-rt",
        )
        return _with_history(obj), "rep-rt", lambda c: c.get_replica("rep-rt")
    if kind == "transformation":
        obj = catalog.get_transformation("gen")
        return _with_history(obj), "gen@1.0", lambda c: c.get_transformation(
            "gen"
        )
    if kind == "derivation":
        obj = catalog.get_derivation("g1")
        obj.name = "rt.dv"
        obj.transformation = VDPRef(name="gen")
        obj.environment = {"B": "2", "A": "1"}
        return _with_history(obj), "rt.dv", lambda c: c.get_derivation("rt.dv")
    obj = Invocation(
        derivation_name="g1",
        invocation_id="inv-rt",
        context=ExecutionContext(environment=(("B", "2"), ("A", "1"))),
        replica_bindings={"o": "rep-1"},
    )
    return _with_history(obj), "inv-rt", lambda c: c.get_invocation("inv-rt")


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "bulk"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_record_is_what_its_document_decodes_to(reopenable, kind, batched):
    """The memory store keeps the record instead of a document, so a
    field ``to_dict`` drops would survive there and vanish on disk:
    every backend must hand back ``decode(obj.to_dict())``."""
    catalog, reopen = reopenable
    obj, key, get = awkward(catalog, kind)
    decoded = _DECODERS[kind](obj.to_dict())
    if batched:
        with catalog.bulk():
            ADD[kind](catalog, obj)
    else:
        ADD[kind](catalog, obj)
    handles = [catalog]
    again = reopen()
    if again is not None:
        handles.append(again)
    for handle in handles:
        got = get(handle)
        assert got.to_dict() == decoded.to_dict()
        assert got.attributes.history("owner") == decoded.attributes.history(
            "owner"
        )
        if kind == "derivation":
            assert got.transformation == decoded.transformation
        if kind == "invocation":
            assert got.context == decoded.context
        assert handle._store_get(kind, key) == decoded.to_dict()


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "bulk"])
def test_untyped_virtual_datasets_share_type_and_descriptor(reopenable, batched):
    catalog, reopen = reopenable
    obj, key, _ = awkward(catalog, "dataset")
    if batched:
        with catalog.bulk():
            catalog.add_dataset(obj)
    else:
        catalog.add_dataset(obj)
    shared = Dataset.from_dict(Dataset(name="other").to_dict())
    handles = [catalog]
    again = reopen()
    if again is not None:
        handles.append(again)
    for handle in handles:
        for ds in (handle._record("dataset", key), handle.get_dataset(key)):
            assert ds.dataset_type is ANY_DATASET
            assert ds.descriptor is shared.descriptor


# -- property: any op sequence leaves every reader on the stored state -------

_names = st.sampled_from(["a", "b", "c"])
_tags = st.lists(st.sampled_from(["x", "y", "z"]), max_size=2)
_writes = st.one_of(
    st.tuples(st.just("dataset"), _names, _tags),
    st.tuples(st.just("derivation"), _names, _tags),
    st.tuples(st.just("replica"), _names, _tags),
    st.tuples(st.just("invocation"), _names, _tags),
    st.tuples(st.just("transformation"), st.just("gen"), _tags),
    st.tuples(st.just("remove"), st.sampled_from(KINDS), _names),
    st.tuples(st.just("read"), st.sampled_from(KINDS), _names),
)
_steps = st.one_of(
    _writes,
    st.tuples(st.sampled_from(["bulk", "abort"]), st.lists(_writes, max_size=4)),
    st.tuples(st.just("import"), st.lists(_writes, max_size=3)),
)


def _stored_keys(catalog, kind, name):
    """Keys of ``kind`` belonging to pool name ``name``."""
    if kind == "replica":
        return [r.replica_id for r in catalog.replicas_of(f"ds.{name}")]
    if kind == "invocation":
        return [i.invocation_id for i in catalog.invocations_of(name)]
    key = {"dataset": f"ds.{name}", "transformation": "gen@1.0"}.get(kind, name)
    return [key] if catalog._store_has(kind, key) else []


def _apply_write(catalog, write):
    op, name, arg = write
    if op == "dataset":
        catalog.add_dataset(
            Dataset(name=f"ds.{name}", attributes={"tags": arg}), replace=True
        )
    elif op == "derivation":
        catalog.add_derivation(
            Derivation(
                name=name,
                transformation=catalog.get_derivation("g1").transformation,
                actuals={
                    "o": DatasetArg(dataset=f"ds.{name}", direction="output"),
                    "seed": "".join(arg),
                },
                environment={"TAGS": ",".join(arg)},
                attributes={"tags": arg},
            ),
            replace=True,
        )
    elif op == "replica":
        catalog.add_replica(
            Replica(
                dataset_name=f"ds.{name}", location="anl",
                attributes={"tags": arg},
            )
        )
    elif op == "invocation":
        catalog.add_invocation(
            Invocation(
                derivation_name=name,
                replica_bindings={tag: f"rep-{tag}" for tag in arg},
                attributes={"tags": arg},
            )
        )
    elif op == "transformation":
        tr = catalog.get_transformation("gen")
        tr.attributes.set("tags", arg)
        tr.executable = "/bin/gen-" + "".join(arg)
        catalog.add_transformation(tr, replace=True)
    elif op == "remove":
        kind, pool = name, arg
        for key in _stored_keys(catalog, kind, pool)[:1]:
            if kind == "transformation":
                continue  # the derivations' callee stays defined
            if kind == "invocation":
                catalog.restore_payload(kind, key, None)
            else:
                getattr(catalog, f"remove_{kind}")(key)
    else:  # read: leaves decoded forms behind for later steps to outdate
        kind, pool = name, arg
        for key in _stored_keys(catalog, kind, pool):
            catalog._record(kind, key)


def _apply_step(catalog, step):
    op, arg = step[0], step[1]
    if op == "bulk":
        with catalog.bulk():
            for write in arg:
                _apply_write(catalog, write)
    elif op == "abort":
        with pytest.raises(Boom):
            with catalog.transaction():
                for write in arg:
                    if write[:2] != ("remove", "invocation"):
                        _apply_write(catalog, write)
                raise Boom
    elif op == "import":
        source = MemoryCatalog().define(DIAMOND_VDL)
        for write in arg:
            _apply_write(source, write)
        catalog.import_snapshot(source.export_snapshot())
    else:
        _apply_write(catalog, step)


def _dumps(obj) -> str:
    return json.dumps(obj.to_dict(), sort_keys=False)


def assert_readers_see_the_store(catalog):
    getters = {
        "dataset": catalog.get_dataset,
        "replica": catalog.get_replica,
        "derivation": catalog.get_derivation,
        "invocation": catalog.get_invocation,
        "transformation": lambda key: catalog.get_transformation(
            *key.rpartition("@")[::2]
        ),
    }
    for kind, get in getters.items():
        for key in catalog._store_keys(kind):
            fresh = _DECODERS[kind](catalog._store_get(kind, key))
            got = get(key)
            # Equal as documents (a backend may reorder keys on its
            # round trip); a copy is byte-identical to its original.
            assert got.to_dict() == fresh.to_dict(), (kind, key)
            assert _dumps(got.copy()) == _dumps(got), (kind, key)
            assert _dumps(catalog._record(kind, key)) == _dumps(got)
    for name in catalog.derivation_names():
        dv = catalog.get_derivation(name)
        tr = catalog.get_transformation(dv.transformation.name)
        payload = catalog._store_get("transformation", tr.qualified_name)
        assert recipe_digest(dv.copy().to_dict(), tr.copy().to_dict()) == (
            recipe_digest(
                catalog._store_get("derivation", name),
                _transformation_from_payload(payload).to_dict(),
            )
        )
    stats = catalog.cache_stats()
    assert stats["decoded"] <= stats["size"] <= stats["capacity"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(_steps, min_size=1, max_size=8),
    st.sampled_from(("memory", "sqlite", "filetree")),
)
def test_every_reader_equals_the_store_after_any_sequence(sequence, backend):
    with open_catalog(backend) as catalog:
        catalog.define(DIAMOND_VDL)
        for step in sequence:
            _apply_step(catalog, step)
            assert_readers_see_the_store(catalog)


# -- counts: the decode really happens once ----------------------------------


@pytest.fixture
def decodes(monkeypatch):
    """Count decodes per kind, whichever way the decoder is reached,
    and documents built (``to_dict`` of any kind)."""
    counts = {kind: 0 for kind in KINDS}
    counts["to_dict"] = 0

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    classes = {
        "dataset": Dataset, "replica": Replica, "derivation": Derivation,
        "invocation": Invocation,
    }
    for kind in KINDS:
        monkeypatch.setitem(
            _DECODERS, kind, counting(kind, _DECODERS[kind])
        )
    for kind, cls in classes.items():
        monkeypatch.setattr(
            cls, "from_dict", staticmethod(counting(kind, cls.from_dict))
        )
    for cls in (*classes.values(), Transformation):
        monkeypatch.setattr(cls, "to_dict", counting("to_dict", cls.to_dict))
    return counts


class TestDecodeCounts:
    def test_discovery_decodes_only_what_the_glob_matches(self, decodes):
        # A document backend decodes; the memory backend keeps records.
        catalog = SQLiteCatalog()
        canonical.generate_graph(catalog, nodes=1000, layers=12, fast=True)
        assert len(catalog.dataset_names()) == 1000
        catalog._rebuild_indexes()  # cold cache, as after an open
        for kind in decodes:
            decodes[kind] = 0
        found = catalog.find_datasets(name_glob="cg.n0001*")
        assert len(found) == 100
        assert decodes["dataset"] == 100
        # Records are kept from the second read of a document on.
        for expected in (200, 200, 200):
            again = catalog.find_datasets(name_glob="cg.n0001*")
            assert [d.to_dict() for d in again] == [
                d.to_dict() for d in found
            ]
            assert decodes["dataset"] == expected
        catalog.close()

    def test_memory_discovery_decodes_and_encodes_nothing(self, decodes):
        catalog = MemoryCatalog()
        canonical.generate_graph(catalog, nodes=1000, layers=12, fast=True)
        for kind in decodes:
            decodes[kind] = 0
        found = catalog.find_datasets(name_glob="cg.n0001*")
        assert len(found) == 100
        assert decodes == dict.fromkeys(decodes, 0)

    def test_repeated_lineage_decodes_nothing(self, any_catalog, decodes):
        any_catalog.define(DIAMOND_VDL)
        for dv, cpu in (("g1", 1.0), ("g2", 2.0), ("s1", 3.0), ("a1", 4.0)):
            any_catalog.add_invocation(invocation(dv, cpu))
        first = lineage_report(any_catalog, "final")
        assert first.total_cpu_seconds() == 10.0
        # Kept from the second read on: whatever the first report was
        # the first to read is decoded once more, then never again.
        lineage_report(any_catalog, "final")
        for kind in decodes:
            decodes[kind] = 0
        second = lineage_report(any_catalog, "final")
        assert second.render() == first.render()
        assert decodes == dict.fromkeys(decodes, 0)
        # Reports own their objects: scribbling on one changes no other.
        second.steps[0].derivation.actuals["o"] = "scribbled"
        second.steps[0].invocations[0].replica_bindings["x"] = "scribbled"
        assert lineage_report(any_catalog, "final").render() == first.render()

    def test_a_scan_that_reads_each_object_once_keeps_nothing(
        self, any_catalog, decodes
    ):
        any_catalog.define(DIAMOND_VDL)
        any_catalog._rebuild_indexes()  # cold cache, as after an open
        names = any_catalog.dataset_names()
        decodes["dataset"] = 0
        assert len(list(any_catalog.datasets())) == len(names)
        assert any_catalog.cache_stats()["decoded"] == 0
        list(any_catalog.datasets())
        if isinstance(any_catalog, MemoryCatalog):
            # The store holds the records: nothing decoded, nothing cached.
            assert decodes["dataset"] == 0
            assert any_catalog.cache_stats()["size"] == 0
        else:
            assert decodes["dataset"] == 2 * len(names)
            assert any_catalog.cache_stats()["decoded"] == len(names)

    def test_decoded_forms_never_outnumber_cached_payloads(self, any_catalog):
        any_catalog._cache.capacity = 4
        any_catalog.define(DIAMOND_VDL)
        # The memory store holds its records; it caches nothing.
        least = 0 if isinstance(any_catalog, MemoryCatalog) else 1
        for name in any_catalog.dataset_names():
            for _ in range(3):
                any_catalog.get_dataset(name)
            stats = any_catalog.cache_stats()
            assert least <= stats["decoded"] <= stats["size"] <= 4
        any_catalog.remove_dataset("final")
        any_catalog.add_dataset(Dataset(name="final"))
        stats = any_catalog.cache_stats()
        assert stats["decoded"] <= stats["size"] <= 4


# -- counts: nothing just written is read back --------------------------------


def test_a_derivation_that_declares_datasets_is_not_read_back(
    any_catalog, monkeypatch
):
    """``add_derivation`` stores the derivation, declares its datasets,
    then announces it: the dataset puts in between must not make the
    index fetch the derivation's document back from the store."""
    any_catalog.define(DIAMOND_VDL)
    reads = []
    real = any_catalog._store_get

    def counting(kind, key):
        reads.append((kind, key))
        return real(kind, key)

    monkeypatch.setattr(any_catalog, "_store_get", counting)
    dv = Derivation(
        name="s3",
        transformation=any_catalog.get_derivation("s1").transformation,
        actuals={
            "o": DatasetArg(dataset="sim3", direction="output"),
            "i": DatasetArg(dataset="raw3", direction="input"),
        },
    )
    any_catalog.add_derivation(dv)
    assert any_catalog.has_dataset("sim3") and any_catalog.has_dataset("raw3")
    assert ("derivation", "s3") not in reads
    assert sorted(any_catalog.derivation_graph().producer_names("sim3")) == ["s3"]
    assert any_catalog.get_dataset("sim3").producer == "s3"
    # Inside a transaction the undo log asks once what each new key
    # held before (nothing; the memory store answers from its records);
    # after its put, nobody asks the store again.
    reads.clear()
    with any_catalog.transaction():
        dv.name, dv.actuals["o"] = "s4", DatasetArg("sim4", "output")
        any_catalog.add_derivation(dv)
    if isinstance(any_catalog, MemoryCatalog):
        assert reads == []
    else:
        assert sorted(reads) == [("dataset", "sim4"), ("derivation", "s4")]
    assert any_catalog.get_derivation("s4").to_dict() == dv.to_dict()
