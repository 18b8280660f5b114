"""Tests for the RecoveryManager behind ``repro fsck``."""

import json

import pytest

from repro.catalog.base import KINDS
from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.core.dataset import Dataset
from repro.durability.atomic import TMP_MARKER
from repro.durability.journal import IntentJournal, load_journal_state
from repro.durability.recovery import (
    PREFLIGHT_AUTO_REPAIR,
    Finding,
    FsckReport,
    RecoveryManager,
    sandbox_filename,
)
from repro.executor.local import LocalExecutor

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
DV mk->make( o=@{output:"base.txt"} );
DV cp->copy( o=@{output:"derived.txt"}, i=@{input:"base.txt"} );
"""


@pytest.fixture
def workspace(tmp_path):
    """A materialized two-step pipeline with a full recovery setup."""
    catalog = MemoryCatalog().define(PIPELINE)
    sandbox = tmp_path / "sandbox"
    executor = LocalExecutor(
        catalog, sandbox, quarantine_dir=tmp_path / "quarantine"
    )
    executor.register(
        "py:make", lambda ctx: ctx.write_output("o", "base-bytes")
    )
    executor.register(
        "py:copy",
        lambda ctx: ctx.write_output("o", ctx.read_input("i").upper()),
    )
    executor.materialize("derived.txt")
    recovery = RecoveryManager(
        catalog,
        sandbox_dir=sandbox,
        journal_dir=tmp_path / "journal",
        rescue_dir=tmp_path / "rescue",
        runs_dir=tmp_path / "runs",
        quarantine_dir=tmp_path / "quarantine",
    )
    return catalog, executor, recovery, tmp_path


class TestCleanWorkspace:
    def test_clean_pass(self, workspace):
        _, _, recovery, _ = workspace
        report = recovery.fsck()
        assert report.clean and not report.corrupted
        assert report.checked_replicas == 2
        assert report.checked_files == 2
        assert "workspace is clean" in report.render()

    def test_report_shapes(self, workspace):
        _, _, recovery, _ = workspace
        report = recovery.fsck()
        data = report.to_dict()
        assert data["clean"] is True
        assert data["checked"]["replicas"] == 2
        json.dumps(data)  # must be serializable for --format json


class TestReplicaFindings:
    def test_phantom_replica(self, workspace):
        catalog, executor, recovery, _ = workspace
        executor.path_for("derived.txt").unlink()
        report = recovery.fsck()
        assert report.counts().get("phantom-replica") == 1
        assert report.corrupted

        repaired = recovery.fsck(repair=True)
        assert all(f.repaired for f in repaired.findings
                   if f.kind == "phantom-replica")
        assert catalog.replicas_of("derived.txt") == []

    def test_corrupt_replica_cascades_to_invalidation(self, workspace):
        catalog, executor, recovery, tmp_path = workspace
        # Flip bytes in the *upstream* output; same length so only the
        # content digest can catch it.
        executor.path_for("base.txt").write_bytes(b"fake-bytes")
        report = recovery.fsck(repair=True)
        kinds = report.counts()
        assert kinds.get("corrupt-replica") == 1
        # The corrupt file is quarantined, not deleted.
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert any(p.name.startswith("base.txt") for p in quarantined)
        # Downstream provenance is reset so planning re-derives.
        assert catalog.replicas_of("base.txt") == []
        assert not catalog.is_materialized("base.txt")

    def test_blast_radius_reads_the_live_graph(self, workspace, derivation_scans):
        catalog, executor, recovery, _ = workspace
        executor.path_for("base.txt").write_bytes(b"fake-bytes")
        scans = derivation_scans(catalog)
        report = recovery.fsck(repair=True)
        (finding,) = [f for f in report.findings if f.kind == "corrupt-replica"]
        assert "tainted downstream: derived.txt" in finding.detail
        assert scans == []

    def test_structural_mode_skips_digests(self, workspace):
        _, executor, recovery, _ = workspace
        executor.path_for("base.txt").write_bytes(b"fake-bytes")  # same size
        report = recovery.fsck(checksums=False)
        assert report.counts().get("corrupt-replica") is None
        assert not report.checksums_verified

    def test_size_mismatch_caught_even_structurally(self, workspace):
        _, executor, recovery, _ = workspace
        executor.path_for("base.txt").write_bytes(b"wrong length entirely")
        report = recovery.fsck(checksums=False)
        assert report.counts().get("corrupt-replica") == 1


class TestInvocationFindings:
    def test_half_committed_invocation(self, workspace):
        catalog, _, recovery, _ = workspace
        # Simulate a crash that persisted the invocation but lost a
        # replica it binds.
        inv = catalog.invocations_of("mk")[0]
        replica_id = next(iter(inv.replica_bindings.values()))
        catalog.restore_payload("replica", replica_id, None)
        report = recovery.fsck(checksums=False)
        assert report.counts().get("half-committed-invocation") == 1
        recovery.fsck(repair=True)
        assert catalog.invocations_of("mk") == []


class TestFileFindings:
    def test_orphan_file_is_warning(self, workspace):
        _, executor, recovery, _ = workspace
        (executor.workdir / "mystery.dat").write_bytes(b"???")
        report = recovery.fsck()
        assert report.counts().get("orphan-file") == 1
        assert not report.corrupted  # warnings never block

    def test_orphan_output_is_error(self, workspace):
        catalog, executor, recovery, _ = workspace
        # Output bytes on disk, but no replica record: the crash hit
        # between stage-out and the provenance commit.
        for replica in catalog.replicas_of("derived.txt"):
            catalog.restore_payload("replica", replica.replica_id, None)
        inv = catalog.invocations_of("cp")[0]
        catalog.restore_payload("invocation", inv.invocation_id, None)
        report = recovery.fsck(checksums=False)
        assert report.counts().get("orphan-output") == 1
        assert report.corrupted
        recovery.fsck(repair=True)
        assert not executor.path_for("derived.txt").exists()
        assert not catalog.is_materialized("derived.txt")

    def test_stale_dataset_state(self, workspace):
        """No dataset state to go stale: once its file and replicas are
        gone the dataset reads virtual, and fsck reports nothing for it."""
        catalog, executor, recovery, _ = workspace
        assert catalog.is_materialized("derived.txt")
        executor.path_for("derived.txt").unlink()
        for replica in catalog.replicas_of("derived.txt"):
            catalog.restore_payload("replica", replica.replica_id, None)
        assert not catalog.is_materialized("derived.txt")
        # Only the invocation that bound the dropped replica is left to
        # report; nothing is reported about the dataset.
        report = recovery.fsck(checksums=True)
        assert report.counts() == {"half-committed-invocation": 1}

    def test_stale_temporary_swept(self, workspace):
        _, executor, recovery, _ = workspace
        stale = executor.workdir / f"out.txt{TMP_MARKER}xyz"
        stale.write_bytes(b"partial")
        report = recovery.fsck(repair=True)
        assert report.counts().get("stale-temporary") == 1
        assert not stale.exists()

    def test_stale_temporary_in_a_catalog_directory_swept(self, tmp_path):
        # A put killed between create and rename leaves its temporary
        # next to the documents, not in the sandbox.
        catalog = FileTreeCatalog(tmp_path / "catalog")
        catalog.add_dataset(Dataset(name="x"))
        stale = tmp_path / "catalog" / "dataset" / f"x.json{TMP_MARKER}abcd"
        stale.write_bytes(b'{"name": "x", "att')
        recovery = RecoveryManager(
            FileTreeCatalog(tmp_path / "catalog"),
            sandbox_dir=tmp_path / "sandbox",
        )

        report = recovery.fsck()
        assert [(f.kind, f.object) for f in report.findings] == [
            ("stale-temporary", str(stale))
        ]
        assert not report.corrupted and stale.exists()

        repaired = recovery.fsck(repair=True)
        assert [f.repaired for f in repaired.findings] == [True]
        assert not stale.exists()
        assert recovery.fsck().clean
        assert FileTreeCatalog(tmp_path / "catalog").dataset_names() == ["x"]

    def test_the_preflight_sweeps_catalog_temporaries_too(self, tmp_path):
        catalog = FileTreeCatalog(tmp_path / "catalog")
        stale = tmp_path / "catalog" / "replica" / f"r.json{TMP_MARKER}1-2"
        stale.write_bytes(b"")
        report = RecoveryManager(catalog).preflight()
        assert report.counts() == {"stale-temporary": 1}
        assert not stale.exists()

    def test_only_the_file_tree_exposes_directories(self, tmp_path):
        assert MemoryCatalog().storage_directories() == []
        with SQLiteCatalog(str(tmp_path / "vdc.db")) as catalog:
            assert catalog.storage_directories() == []
        assert FileTreeCatalog(tmp_path / "vdc").storage_directories() == [
            tmp_path / "vdc" / kind for kind in KINDS
        ]


class TestJournalFindings:
    def test_uncommitted_txn_rolled_back(self, workspace):
        catalog, _, recovery, tmp_path = workspace
        from repro.core.dataset import Dataset

        ghost = Dataset(name="ghost").to_dict()
        journal = IntentJournal(tmp_path / "journal")
        catalog.attach_journal(journal)
        txn = journal.begin("crashed")
        journal.record(txn, "put", "dataset", "ghost", payload=ghost)
        catalog.restore_payload("dataset", "ghost", ghost)
        journal.close()  # died before commit

        report = recovery.fsck(checksums=False)
        assert report.counts().get("uncommitted-txn") == 1
        assert report.corrupted

        recovery.fsck(repair=True)
        assert not catalog.has_dataset("ghost")
        # Rolled-back history is checkpointed away: next pass is clean.
        assert load_journal_state(tmp_path / "journal").clean
        assert not recovery.fsck(checksums=False).corrupted

    def test_torn_tail_repair_cuts_a_terminated_torn_line(self, workspace):
        """A torn line that still got its newline is cut by the repair,
        not only reported as repaired."""
        _, _, recovery, tmp_path = workspace
        journal = IntentJournal(tmp_path / "journal")
        journal.commit(journal.begin("sealed"), 0)
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"type": "op", "txn"\n')
        (finding,) = recovery.fsck(repair=True).findings
        assert finding.kind == "torn-journal-tail" and finding.repaired
        assert recovery.fsck().clean
        assert load_journal_state(tmp_path / "journal").committed == 1

    def test_corrupt_journal_quarantined(self, workspace):
        _, _, recovery, tmp_path = workspace
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / "catalog.journal").write_text(
            'GARBAGE\n{"type": "begin", "txn": "t"}\n'
        )
        report = recovery.fsck(repair=True)
        assert report.counts().get("journal-corrupt") == 1
        assert (journal_dir / "catalog.journal.corrupt").exists()


class TestRescueFindings:
    def test_torn_rescue_tail_rewritten(self, workspace):
        from repro.resilience.rescue import RescueFile

        _, _, recovery, tmp_path = workspace
        rescue_dir = tmp_path / "rescue"
        rescue_dir.mkdir()
        rescue = RescueFile(targets=("a",), signature="sig")
        target = rescue_dir / "run.rescue.json"
        rescue.save(target)
        with open(target, "a") as handle:
            handle.write('{"kind": "completed", "st')  # torn append
        report = recovery.fsck(repair=True)
        assert report.counts().get("torn-rescue-tail") == 1
        # The rewrite cleared the tear.
        assert not RescueFile.load(target).truncated

    def test_corrupt_rescue_quarantined(self, workspace):
        _, _, recovery, tmp_path = workspace
        rescue_dir = tmp_path / "rescue"
        rescue_dir.mkdir()
        bad = rescue_dir / "bad.rescue.json"
        bad.write_text("not json")
        report = recovery.fsck(repair=True)
        assert report.counts().get("corrupt-rescue-file") == 1
        assert not bad.exists()
        assert any(
            p.name.startswith("bad.rescue.json")
            for p in (tmp_path / "quarantine").iterdir()
        )


class TestPreflight:
    def test_preflight_repairs_journal_only(self, workspace):
        catalog, executor, recovery, tmp_path = workspace
        # One journal problem (auto-repaired) and one replica problem
        # (reported but untouched).
        journal = IntentJournal(tmp_path / "journal")
        txn = journal.begin("crashed")
        journal.record(txn, "put", "dataset", "ghost", payload=None)
        journal.close()
        catalog.attach_journal(IntentJournal(tmp_path / "journal"))
        executor.path_for("derived.txt").unlink()

        report = recovery.preflight()
        by_kind = {f.kind: f for f in report.findings}
        assert by_kind["uncommitted-txn"].repaired
        assert not by_kind["phantom-replica"].repaired
        assert report.corrupted  # the phantom still blocks

    def test_preflight_kinds_are_real(self):
        # Guard against drift between the constant and the taxonomy.
        assert set(PREFLIGHT_AUTO_REPAIR) == {
            "torn-journal-tail",
            "uncommitted-txn",
            "stale-temporary",
        }


class TestReportSemantics:
    def test_severity_ordering(self):
        report = FsckReport()
        report.add(Finding("a", "warning", "x", "d"))
        report.add(Finding("b", "info", "y", "d"))
        assert not report.corrupted
        report.add(Finding("c", "error", "z", "d"))
        assert report.corrupted
        assert len(report.unrepaired("warning")) == 2
        assert len(report.unrepaired("info")) == 3

    def test_repaired_errors_do_not_block(self):
        report = FsckReport()
        report.add(Finding("c", "error", "z", "d", repaired=True))
        assert not report.corrupted

    def test_sandbox_filename_flattens_paths(self):
        assert sandbox_filename("runs/2026/x.dat") == "runs_2026_x.dat"


class TestRunRecordCheck:
    """fsck's streaming verdict on a flight record is the one
    ``RunRecord.load`` gives: both read through one line reader."""

    META = {"type": "meta", "schema_version": 2, "run_id": "r1"}
    STEP = {"type": "event", "kind": "retry", "step": "s"}
    RESULT = {"type": "result", "status": "ok"}

    CASES = {
        "clean": ([META, STEP, RESULT], "", "clean"),
        "torn final line": ([META, STEP], '{"type": "res', "crashed"),
        "mid-file garbage": ([META, STEP], "GARBAGE\n" + json.dumps(RESULT)
                             + "\n", "unreadable"),
        "newer schema": ([{**META, "schema_version": 99}, RESULT], "",
                         "unreadable"),
        "no result line": ([META, STEP, STEP], "", "crashed"),
        "empty file": ([], "", "crashed"),
    }

    @staticmethod
    def load_verdict(path):
        from repro.observability.recorder import RunRecord

        try:
            record = RunRecord.load(path)
        except ValueError:
            return "unreadable"
        if record.truncated or not record.finished:
            return "crashed"
        return "clean"

    @staticmethod
    def fsck_verdict(runs_dir):
        report = RecoveryManager(MemoryCatalog(), runs_dir=runs_dir).fsck()
        if not report.findings:
            return "clean"
        (finding,) = report.findings
        assert finding.kind == "crashed-run-record"
        return (
            "unreadable" if finding.detail == "flight record unreadable"
            else "crashed"
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fsck_agrees_with_load(self, tmp_path, case):
        lines, tail, expected = self.CASES[case]
        path = tmp_path / "runs" / "r1" / "record.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines) + tail
        )
        assert self.load_verdict(path) == expected
        assert self.fsck_verdict(tmp_path / "runs") == expected


def test_preflight_reads_no_flight_record(workspace, monkeypatch):
    """The preflight before every materialize/run leaves ``runs/``
    alone (its one finding is informational); fsck still reports it."""
    import builtins
    import io
    import os

    catalog, executor, recovery, tmp_path = workspace
    runs = tmp_path / "runs"
    (runs / "r1").mkdir(parents=True)
    (runs / "r1" / "record.jsonl").write_text("GARBAGE\nGARBAGE\n")
    touched = []
    real_open, real_scandir, real_listdir = io.open, os.scandir, os.listdir

    def watch(real):
        def wrapper(path=".", *args, **kwargs):
            touched.append(os.fspath(path) if not isinstance(path, int)
                           else "")
            return real(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(io, "open", watch(real_open))
    monkeypatch.setattr(builtins, "open", watch(real_open))
    monkeypatch.setattr(os, "scandir", watch(real_scandir))
    monkeypatch.setattr(os, "listdir", watch(real_listdir))
    report = recovery.preflight()
    assert not report.findings
    assert not [p for p in touched if p.startswith(str(runs))]
    monkeypatch.undo()
    assert [f.kind for f in recovery.fsck().findings] == ["crashed-run-record"]
