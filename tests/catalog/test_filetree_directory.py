"""The file-tree catalog's in-memory directory and its write path.

A :class:`FileTreeCatalog` lists its kind directories once, at open,
and from then on answers membership, key listings and lookups of
unknown keys from memory.  That is a cache, so the rule sequence pins
that after any mix of mutations the directory *is* the tree on disk;
the count tests pin what the write path costs (a put is one create and
one rename, membership costs no syscall, nothing builds a
``pathlib.Path`` per operation); the format tests pin that a tree
written with the earlier, indented encoder still opens and works.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import urllib.parse
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.catalog.base import KINDS
from repro.catalog.filetree import FileTreeCatalog
from repro.cli import Workspace
from repro.core.dataset import Dataset
from repro.core.invocation import Invocation
from repro.core.replica import Replica
from repro.durability.atomic import TMP_MARKER
from repro.durability.journal import IntentJournal, load_journal_state
from repro.durability.recovery import RecoveryManager
from repro.errors import NotFoundError
from repro.planner.request import MaterializationRequest
from tests.catalog.test_decode_once import (
    _apply_step,
    _apply_write,
    _names,
    _stored_keys,
    _writes,
)
from tests.conftest import DIAMOND_VDL

FIXTURE = Path(__file__).parent / "fixtures" / "tree_indent1"


def listed(root: Path, kind: str) -> list[str]:
    """The keys of ``kind`` as the filesystem has them, sorted."""
    return sorted(
        urllib.parse.unquote(name[: -len(".json")])
        for name in os.listdir(root / kind)
        if name.endswith(".json")
    )


def assert_directory_is_the_tree(catalog: FileTreeCatalog) -> None:
    root = catalog.root
    on_disk = {kind: listed(root, kind) for kind in KINDS}
    for kind, keys in on_disk.items():
        assert sorted(catalog._directory[kind]) == keys, kind
        assert sorted(catalog._store_keys(kind)) == keys, kind
        for key in (*keys, "no-such-key"):
            assert catalog._store_has(kind, key) == (key in keys)
        assert not [n for n in os.listdir(root / kind) if TMP_MARKER in n]
    for name in ("ds.a", "ds.b", "ds.c", "raw1"):
        assert catalog.has_dataset(name) == (name in on_disk["dataset"])
    for name in ("a", "b", "c", "g1"):
        assert catalog.has_derivation(name) == (name in on_disk["derivation"])
    assert catalog.has_transformation("gen", "1.0") == (
        "gen@1.0" in on_disk["transformation"]
    )
    fresh = FileTreeCatalog(root)
    assert fresh.counts() == catalog.counts()
    for kind, keys in on_disk.items():
        for key in keys:
            assert fresh._store_get(kind, key) == catalog._store_get(kind, key)


class DirectoryMachine(RuleBasedStateMachine):
    """Every way the tree changes, in any order, on the CLI's wiring
    (a journal attached); the directory is checked after each rule."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="vdg-dirtest-"))
        self.root = self.tmp / "vdc"
        self.catalog = self.open()
        self.catalog.define(DIAMOND_VDL)

    def open(self) -> FileTreeCatalog:
        catalog = FileTreeCatalog(self.root)
        catalog.attach_journal(IntentJournal(self.tmp / "journal"))
        return catalog

    def teardown(self):
        self.catalog.journal.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # put, replace and remove of every kind, through the typed API
    @rule(write=_writes)
    def write(self, write):
        _apply_write(self.catalog, write)

    @rule(writes=st.lists(_writes, max_size=4))
    def bulk(self, writes):
        _apply_step(self.catalog, ("bulk", writes))

    @rule(writes=st.lists(_writes, max_size=4))
    def raising_transaction(self, writes):
        _apply_step(self.catalog, ("abort", writes))

    @rule(writes=st.lists(_writes, max_size=3))
    def import_snapshot(self, writes):
        _apply_step(self.catalog, ("import", writes))

    @rule(
        kind=st.sampled_from(("dataset", "replica", "derivation", "invocation")),
        name=_names,
        put_back=st.booleans(),
    )
    def restore_payload(self, kind, name, put_back):
        for key in _stored_keys(self.catalog, kind, name)[:1]:
            payload = self.catalog._store_get(kind, key)
            self.catalog.restore_payload(kind, key, None)
            if put_back:
                self.catalog.restore_payload(kind, key, payload)

    @rule(names=st.lists(_names, min_size=1, max_size=3, unique=True))
    def crash_then_fsck_repair(self, names):
        """A process dies with a transaction journaled, applied and
        unsealed; the next one repairs through a handle of its own."""
        catalog, journal = self.catalog, self.catalog.journal
        before = {kind: listed(self.root, kind) for kind in KINDS}
        txn = journal.begin("crashed")
        for name in names:
            key = f"ds.{name}"
            prev = catalog._store_get("dataset", key)
            payload = (
                None
                if prev is not None and name == names[0]
                else Dataset(name=key, attributes={"crashed": True}).to_dict()
            )
            journal.record(
                txn, "put" if payload else "delete", "dataset", key,
                payload=payload, prev=prev,
            )
            catalog.restore_payload("dataset", key, payload)
        journal.close()
        self.catalog = self.open()
        recovery = RecoveryManager(
            self.catalog, journal_dir=self.tmp / "journal"
        )
        # The preflight repairs the journal and nothing else (generated
        # invocations bind replicas that were never stored).
        report = recovery.preflight()
        assert report.counts()["uncommitted-txn"] == 1
        assert load_journal_state(self.tmp / "journal").clean
        assert {kind: listed(self.root, kind) for kind in KINDS} == before

    @rule()
    def reopen(self):
        self.catalog.journal.close()
        self.catalog = self.open()

    @invariant()
    def directory_is_the_tree(self):
        assert_directory_is_the_tree(self.catalog)


TestDirectoryMachine = DirectoryMachine.TestCase
TestDirectoryMachine.settings = settings(
    max_examples=40,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- counts: what the write path costs ----------------------------------------


def pathlib_calls(fn) -> list[str]:
    """Names of the ``pathlib`` functions that run inside ``fn()``."""
    seen = []

    def profile(frame, event, arg):
        if event == "call" and "pathlib" in frame.f_code.co_filename:
            seen.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return seen


class TestWritePathCounts:
    def test_a_new_dataset_is_one_create_and_one_rename(
        self, tmp_path, syscalls
    ):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        syscalls.clear()
        catalog.add_dataset(Dataset(name="fresh"))
        assert dict(syscalls) == {"open": 1, "replace": 1}
        assert syscalls.open_flags[-1] & (os.O_CREAT | os.O_EXCL) == (
            os.O_CREAT | os.O_EXCL
        )
        assert listed(tmp_path / "vdc", "dataset") == ["fresh"]

    def test_membership_and_counts_touch_no_filesystem(
        self, tmp_path, syscalls
    ):
        catalog = FileTreeCatalog(tmp_path / "vdc").define(DIAMOND_VDL)
        syscalls.clear()
        assert catalog.has_dataset("raw1") and not catalog.has_dataset("nope")
        assert catalog.has_derivation("g1")
        assert catalog.counts()["derivation"] == 5
        assert catalog.dataset_names()[0] == "final"
        assert catalog._store_get("dataset", "nope") is None
        assert dict(syscalls) == {}

    def test_open_lists_each_kind_directory_once(self, tmp_path, syscalls):
        FileTreeCatalog(tmp_path / "vdc").define(DIAMOND_VDL)
        syscalls.clear()
        FileTreeCatalog(tmp_path / "vdc")
        assert syscalls["listdir"] + syscalls["scandir"] == len(KINDS)

    def test_no_path_object_per_operation(self, tmp_path):
        catalog = FileTreeCatalog(tmp_path / "vdc")

        def operations():
            catalog.add_dataset(Dataset(name="fresh"))
            catalog.add_dataset(Dataset(name="fresh"), replace=True)
            catalog._store_get("dataset", "fresh")
            catalog.has_dataset("fresh")
            catalog.counts()

        assert pathlib_calls(operations) == []


class TestFailedAndCollidingWrites:
    def test_failed_rename_leaves_no_temporary_and_no_entry(
        self, tmp_path, monkeypatch
    ):
        catalog = FileTreeCatalog(tmp_path / "vdc")

        def refuse(src, dst):
            raise OSError("disk says no")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk says no"):
            catalog.add_dataset(Dataset(name="lost"))
        monkeypatch.undo()
        assert os.listdir(tmp_path / "vdc" / "dataset") == []
        assert not catalog.has_dataset("lost")
        assert catalog.counts()["dataset"] == 0
        with pytest.raises(NotFoundError):
            catalog.get_dataset("lost")
        assert_directory_is_the_tree(catalog)

    def test_deleted_behind_the_handle_reads_as_not_found(self, tmp_path):
        root = tmp_path / "vdc"
        writer = FileTreeCatalog(root)
        replica = Replica(dataset_name="raw1", location="anl")
        writer.add_replica(replica)
        writer.add_invocation(
            Invocation(
                derivation_name="g1",
                replica_bindings={"o": replica.replica_id},
            )
        )
        reader = FileTreeCatalog(root)
        (document,) = (root / "replica").iterdir()
        document.unlink()

        # The handle's view is what it found at open ...
        assert reader._store_has("replica", replica.replica_id)
        # ... until it goes to the file: not found, and forgotten.
        assert reader._store_get("replica", replica.replica_id) is None
        assert not reader._store_has("replica", replica.replica_id)
        assert reader.replica_ids() == []
        reader._cache.clear()
        with pytest.raises(NotFoundError):
            reader.get_replica(replica.replica_id)
        assert_directory_is_the_tree(reader)

        # fsck (a handle of its own, as the CLI opens one) reports the
        # dangling reference exactly as before.
        report = RecoveryManager(FileTreeCatalog(root)).fsck()
        assert report.counts() == {"half-committed-invocation": 1}
        assert replica.replica_id in report.findings[0].detail


# -- format: trees written by the indenting encoder still work ----------------


@pytest.fixture
def old_tree(tmp_path) -> Workspace:
    """A workspace over a copy of the tree the previous encoder wrote
    (``indent=1``): five kinds, one percent-encoded key."""
    shutil.copytree(FIXTURE, tmp_path / "ws")
    return Workspace(tmp_path / "ws")


class TestIndentedTree:
    def test_opens_with_every_kind(self, old_tree):
        catalog = old_tree.catalog()
        assert catalog.counts() == {
            "dataset": 2, "replica": 1, "transformation": 2,
            "derivation": 2, "invocation": 1,
        }
        assert catalog.get_transformation("example1::t1", "1.0").name == (
            "example1::t1"
        )
        assert catalog.invocations_of("e1")[0].replica_bindings == {
            "o": catalog.replicas_of("seed.txt")[0].replica_id
        }
        assert_directory_is_the_tree(catalog)
        catalog.journal.close()

    def test_fscks_clean_plans_and_materializes(self, old_tree):
        assert old_tree.recovery().fsck(checksums=True).clean
        executor = old_tree.executor()
        plan = executor.planner().plan(
            MaterializationRequest(targets=("copy.txt",), reuse="always")
        )
        assert plan.topological_order() == ["e1", "c1"]
        invocations = executor.materialize("copy.txt")
        assert [inv.derivation_name for inv in invocations] == ["e1", "c1"]
        assert executor.path_for("copy.txt").read_text() == "hello-vdg\n"
        executor.catalog.journal.close()
        assert old_tree.recovery().fsck(checksums=True).clean

    def test_a_rewritten_document_is_one_sorted_line(self, old_tree):
        catalog = old_tree.catalog()
        path = old_tree.catalog_dir / "dataset" / "seed.txt.json"
        untouched = old_tree.catalog_dir / "transformation" / (
            "example1%3A%3At1%401.0.json"
        )
        indented = path.read_text()
        assert indented.count("\n") > 1
        before = catalog.get_dataset("seed.txt")

        catalog.add_dataset(before, replace=True)

        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == json.dumps(json.loads(indented), sort_keys=True) + "\n"
        assert FileTreeCatalog(old_tree.catalog_dir).get_dataset(
            "seed.txt"
        ).to_dict() == before.to_dict()
        assert untouched.read_bytes() == (
            FIXTURE / "catalog" / "transformation" / untouched.name
        ).read_bytes()
        catalog.journal.close()
