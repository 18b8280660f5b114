"""The file-tree catalog's segments, its directory and its write path.

A :class:`FileTreeCatalog` keeps one append-only segment per kind and
scans each once, at open, into an in-memory directory that answers
membership, key listings and lookups of unknown keys from then on.
That is a cache, so the rule sequence pins that after any mix of
mutations the directory *is* what a fresh scan of the segments reads;
the count tests pin what the write path costs (a put is one append:
no create, no rename, no path object); the crash tests pin a torn
final line, compaction under a second live handle and a kill
mid-migration; the format tests pin that a tree written with one file
per document, indented by the earlier encoder, still opens and works.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import urllib.parse
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.catalog.base import KINDS
from repro.catalog.filetree import SEGMENT, FileTreeCatalog
from repro.cli import Workspace, main
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
SRC = Path(__file__).resolve().parents[2] / "src"


def scanned(root: Path, kind: str) -> dict[str, dict]:
    """The documents of ``kind`` as the files have them, read without
    the catalog: ``<key>.json`` files, then the segment's complete
    lines in order (the last line of a key wins, a bare key deletes)."""
    documents = {
        urllib.parse.unquote(name[: -len(".json")]): json.loads(
            (root / kind / name).read_text()
        )
        for name in os.listdir(root / kind)
        if name.endswith(".json")
    }
    data = (root / kind / SEGMENT).read_bytes()
    for line in data[: data.rfind(b"\n") + 1].decode().splitlines():
        encoded, _, document = line.partition(" ")
        key = urllib.parse.unquote(encoded)
        if document:
            documents[key] = json.loads(document)
        else:
            documents.pop(key, None)
    return documents


def segment_lines(root: Path, kind: str) -> list[str]:
    return (root / kind / SEGMENT).read_text().splitlines()


def assert_directory_is_the_tree(catalog: FileTreeCatalog) -> None:
    root = catalog.root
    on_disk = {kind: scanned(root, kind) for kind in KINDS}
    for kind, documents in on_disk.items():
        keys = sorted(documents)
        assert sorted(catalog._directory[kind]) == keys, kind
        assert sorted(catalog._store_keys(kind)) == keys, kind
        for key in (*keys, "no-such-key"):
            assert catalog._store_has(kind, key) == (key in keys)
            assert catalog._store_get(kind, key) == documents.get(key)
        assert dict(catalog._store_scan(kind)) == documents, kind
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
    assert fresh.export_snapshot() == catalog.export_snapshot()
    fresh.close()


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
        before = {kind: scanned(self.root, kind) for kind in KINDS}
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
        assert {kind: scanned(self.root, kind) for kind in KINDS} == before

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
    def test_a_new_dataset_is_one_append(
        self, tmp_path, syscalls, monkeypatch
    ):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        writes = []
        real_write = os.write

        def write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        syscalls.clear()
        catalog.add_dataset(Dataset(name="fresh"))
        # No open (so no create), no rename, no stat: one write.
        assert dict(syscalls) == {}
        assert writes == [
            b"fresh " + json.dumps(
                Dataset(name="fresh").to_dict(), sort_keys=True
            ).encode() + b"\n"
        ]
        assert os.listdir(tmp_path / "vdc" / "dataset") == [SEGMENT]
        assert list(scanned(tmp_path / "vdc", "dataset")) == ["fresh"]

    def test_a_batch_is_one_append(self, tmp_path, monkeypatch):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        source = FileTreeCatalog(tmp_path / "src").define(DIAMOND_VDL)
        writes: Counter = Counter()
        real_write = os.write

        def write(fd, data):
            writes[fd] += 1
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        catalog.import_snapshot(source.export_snapshot())
        assert sorted(writes.values()) == [1, 1, 1]  # dataset, TR, DV
        assert_directory_is_the_tree(catalog)

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

    def test_a_one_output_step_writes_one_replica_and_one_invocation(
        self, tmp_path, monkeypatch
    ):
        """The provenance commit writes no dataset record: the replica
        is what makes the output materialized."""
        workspace = Workspace(tmp_path / "ws")
        workspace.create()
        executor = workspace.executor()
        catalog = executor.catalog
        catalog.define(DIAMOND_VDL)
        executor.register("/bin/gen", lambda ctx: ctx.write_output("o", "42\n"))
        puts: Counter = Counter()
        store_put = catalog._store_put

        def counted(kind, key, payload):
            puts[kind] += 1
            store_put(kind, key, payload)

        monkeypatch.setattr(catalog, "_store_put", counted)
        executor.execute("g1")
        assert dict(puts) == {"replica": 1, "invocation": 1}
        assert catalog.is_materialized("raw1")
        catalog.journal.close()


class TestFailedAndCollidingWrites:
    def test_failed_write_leaves_no_entry(self, tmp_path, monkeypatch):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        catalog.add_dataset(Dataset(name="kept"))
        before = (tmp_path / "vdc" / "dataset" / SEGMENT).read_bytes()
        real_write = os.write

        def half_then_refuse(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError("disk says no")

        monkeypatch.setattr(os, "write", half_then_refuse)
        with pytest.raises(OSError, match="disk says no"):
            catalog.add_dataset(Dataset(name="lost"))
        monkeypatch.undo()
        assert not catalog.has_dataset("lost")
        assert catalog.counts()["dataset"] == 1
        with pytest.raises(NotFoundError):
            catalog.get_dataset("lost")
        # The half line that landed is cut off before the next append.
        catalog.add_dataset(Dataset(name="next"))
        after = (tmp_path / "vdc" / "dataset" / SEGMENT).read_bytes()
        assert after.startswith(before)
        assert after[len(before):].startswith(b"next ")
        assert after.count(b"\n") == 2
        assert_directory_is_the_tree(catalog)

    def test_deleted_behind_the_handle_stays_in_its_view(self, tmp_path):
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
        document = writer._store_get("replica", replica.replica_id)
        reader = FileTreeCatalog(root)
        writer.restore_payload("replica", replica.replica_id, None)
        assert replica.replica_id not in scanned(root, "replica")

        # The handle's view is what it found at open plus what it wrote:
        # its line is still where the directory says.
        assert reader._store_has("replica", replica.replica_id)
        assert reader._store_get("replica", replica.replica_id) == document
        assert reader.replica_ids() == [replica.replica_id]
        reader._cache.clear()
        assert reader.get_replica(replica.replica_id).location == "anl"
        # What it writes lands after the other handle's tombstone.
        reader.add_dataset(Dataset(name="later"))
        assert segment_lines(root, "dataset") == [
            "later " + json.dumps(
                Dataset(name="later").to_dict(), sort_keys=True
            )
        ]

        # fsck (a handle of its own, as the CLI opens one) reports the
        # dangling reference exactly as before.
        report = RecoveryManager(FileTreeCatalog(root)).fsck()
        assert report.counts() == {"half-committed-invocation": 1}
        assert replica.replica_id in report.findings[0].detail


# -- crashes: a torn line, compaction, a kill mid-migration -------------------


class TestSegmentCrashes:
    def test_a_torn_final_line_is_skipped_reported_and_cut(self, tmp_path):
        root = tmp_path / "vdc"
        FileTreeCatalog(root).define(DIAMOND_VDL)
        segment = root / "derivation" / SEGMENT
        whole = segment.read_bytes()
        with open(segment, "ab") as handle:
            handle.write(b'torn {"name": "torn", "transfor')

        catalog = FileTreeCatalog(root)
        assert catalog.counts()["derivation"] == 5
        assert not catalog.has_derivation("torn")
        report = RecoveryManager(catalog).fsck()
        assert report.counts() == {"torn-segment-tail": 1}
        assert not report.corrupted  # the next append cuts it anyway
        assert report.findings[0].object == str(segment)

        # The next append cuts the torn line off first ...
        catalog.remove_derivation("g1")
        assert segment.read_bytes() == whole + b"g1\n"
        assert catalog.torn_segments() == []
        # ... and so does fsck --repair, without an append.
        with open(segment, "ab") as handle:
            handle.write(b"half-a-key")
        catalog = FileTreeCatalog(root)
        report = RecoveryManager(catalog).fsck(repair=True)
        assert [f.repaired for f in report.findings] == [True]
        assert segment.read_bytes() == whole + b"g1\n"
        assert RecoveryManager(FileTreeCatalog(root)).fsck().clean
        assert_directory_is_the_tree(catalog)

    def test_compaction_under_a_second_live_handle(self, tmp_path):
        root = tmp_path / "vdc"
        first = FileTreeCatalog(root).define(DIAMOND_VDL)
        for round_ in range(6):
            first.add_dataset(
                Dataset(name="raw1", attributes={"round": round_}),
                replace=True,
            )
        first.restore_payload("dataset", "ds.never", None)
        segment = root / "dataset" / SEGMENT
        grown = segment.stat()

        second = FileTreeCatalog(root)  # dead bytes > live: compacts
        compacted = segment.stat()
        assert compacted.st_ino != grown.st_ino
        assert compacted.st_size < grown.st_size / 2
        assert len(segment_lines(root, "dataset")) == 5
        assert second.get_dataset("raw1").attributes["round"] == 5

        # The first handle still reads its own view, then notices the
        # replaced segment before it appends: nothing is lost.
        assert first.get_dataset("raw1").attributes["round"] == 5
        first.add_dataset(Dataset(name="from-first"))
        second.add_dataset(Dataset(name="from-second"))
        first.add_dataset(Dataset(name="raw1", attributes={}), replace=True)
        assert segment.stat().st_ino == compacted.st_ino
        fresh = FileTreeCatalog(root)
        assert {"from-first", "from-second"} <= set(fresh.dataset_names())
        assert "round" not in fresh.get_dataset("raw1").attributes
        assert fresh.counts()["dataset"] == 7
        assert_directory_is_the_tree(fresh)

    @pytest.mark.parametrize("fsync", (False, True))
    def test_segments_reach_the_disk_before_an_fsynced_seal(
        self, tmp_path, monkeypatch, fsync
    ):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        journal = IntentJournal(tmp_path / "journal", fsync=fsync)
        catalog.attach_journal(journal)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        with catalog.transaction("one"):
            catalog.add_dataset(Dataset(name="d"))
        # The default path adds no fsync; a durable journal's marker
        # follows the fsync of the one segment the transaction wrote.
        segment = catalog._fds["dataset"]
        assert synced == ([segment, journal._handles[0].fileno()] if fsync else [])
        journal.close()

    def test_a_kill_mid_migration_of_a_legacy_tree(self, tmp_path):
        """Rewriting every document of a one-file-per-document tree
        into the segments, SIGKILLed after a few journaled ops: the
        repaired tree reads exactly as before, and so does one whose
        migration then completes."""
        shutil.copytree(FIXTURE, tmp_path / "ws")
        workspace = Workspace(tmp_path / "ws")
        original = FileTreeCatalog(workspace.catalog_dir).export_snapshot()
        migrate = (
            "import sys\n"
            "from repro.cli import Workspace\n"
            "catalog = Workspace(sys.argv[1]).catalog()\n"
            "with catalog.transaction('migrate'):\n"
            "    catalog.import_snapshot(catalog.export_snapshot())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        killed = subprocess.run(
            [sys.executable, "-c", migrate, str(workspace.root)],
            env={**env, "REPRO_CRASH_AFTER": "4"},
        )
        assert killed.returncode == -9
        assert segment_lines(workspace.catalog_dir, "dataset")  # half-way
        transformations = workspace.catalog_dir / "transformation" / SEGMENT
        assert not transformations.stat().st_size

        report = workspace.recovery().fsck(repair=True)
        assert report.counts() == {"uncommitted-txn": 1}
        catalog = workspace.catalog()
        assert catalog.export_snapshot() == original
        catalog.journal.close()

        done = subprocess.run(
            [sys.executable, "-c", migrate, str(workspace.root)], env=env
        )
        assert done.returncode == 0
        catalog = workspace.catalog()
        assert catalog.export_snapshot() == original
        # Every key now lives in its segment, shadowing its file.
        for kind in KINDS:
            assert -1 not in catalog._directory[kind].values(), kind
        catalog.journal.close()
        assert workspace.recovery().fsck().clean


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

        # One sorted line in the segment, shadowing the untouched file.
        assert segment_lines(old_tree.catalog_dir, "dataset") == [
            "seed.txt " + json.dumps(json.loads(indented), sort_keys=True)
        ]
        assert path.read_text() == indented
        reopened = FileTreeCatalog(old_tree.catalog_dir)
        assert reopened.get_dataset("seed.txt").to_dict() == before.to_dict()
        assert reopened._directory["dataset"]["seed.txt"] >= 0
        assert reopened._directory["dataset"]["copy.txt"] == -1
        assert untouched.read_bytes() == (
            FIXTURE / "catalog" / "transformation" / untouched.name
        ).read_bytes()
        # A delete of a key its file holds is a tombstone that hides it.
        catalog.restore_payload("transformation", "example1::t1@1.0", None)
        assert untouched.exists()
        reopened = FileTreeCatalog(old_tree.catalog_dir)
        assert not reopened.has_transformation("example1::t1", "1.0")
        assert_directory_is_the_tree(reopened)
        catalog.journal.close()


# -- format: trees whose dataset records carry a copied descriptor -----------

#: Written by the commit path that copied each output's file descriptor
#: into its dataset record.  Replica and dataset descriptors spell the
#: sandbox as ``@SANDBOX@``: the copy below points them at its own.
COPIED_DESCRIPTORS = Path(__file__).parent / "fixtures" / "tree_descriptor_copy"


@pytest.fixture
def copied_descriptors(tmp_path) -> Path:
    """A workspace over a copy of that tree: ``seed.txt`` and
    ``copy.txt`` materialized, each record naming its file."""
    root = tmp_path / "ws"
    shutil.copytree(COPIED_DESCRIPTORS, root)
    for document in (root / "catalog").rglob("*.json"):
        text = document.read_text()
        document.write_text(text.replace("@SANDBOX@", str(root / "sandbox")))
    return root


def cli(root: Path, *argv: str) -> tuple[int, str]:
    lines: list[str] = []
    code = main(
        ["--workspace", str(root), *argv],
        out=lambda text="": lines.append(str(text)),
    )
    return code, "\n".join(lines)


class TestCopiedDescriptorTree:
    def test_lists_plans_and_fscks_as_it_was_written(self, copied_descriptors):
        assert cli(copied_descriptors, "list", "datasets") == (
            0,
            "copy.txt  [materialized] <- c1\nseed.txt  [materialized] <- e1",
        )
        assert cli(copied_descriptors, "plan", "copy.txt") == (
            0,
            "copy.txt: nothing to do (reused: copy.txt)",
        )
        assert cli(copied_descriptors, "fsck") == (
            0,
            "fsck (full): 2 replicas, 2 files, 2 invocations checked; "
            "0 finding(s), 0 repaired\nworkspace is clean",
        )

    def test_a_quarantined_replica_leaves_the_copy_inert(
        self, copied_descriptors
    ):
        (copied_descriptors / "sandbox" / "copy.txt").write_bytes(b"X" * 10)
        code, output = cli(copied_descriptors, "fsck", "--repair")
        assert code == 0
        assert "[fixed] corrupt-replica: rep-00000002 (copy.txt)" in output
        # The record still names the file it was copied from; it is
        # the missing replica that decides.
        catalog = Workspace(copied_descriptors).catalog()
        assert not catalog.get_dataset("copy.txt").is_virtual
        assert not catalog.is_materialized("copy.txt")
        assert [ds.name for ds in catalog.find_datasets(virtual=True)] == [
            "copy.txt"
        ]
        catalog.journal.close()
        _, listing = cli(copied_descriptors, "list", "datasets")
        assert "copy.txt  [virtual] <- c1" in listing
        code, output = cli(
            copied_descriptors, "materialize", "copy.txt", "--no-record"
        )
        assert code == 0
        assert output.startswith("ran c1: success")
        assert "ran e1" not in output
        assert cli(copied_descriptors, "fsck")[1].endswith("workspace is clean")
