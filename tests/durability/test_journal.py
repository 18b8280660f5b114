"""Tests for the intent journal: scan, rollback, replay, torn tails."""

import json

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.durability.journal import (
    JOURNAL_FILENAME,
    JournalError,
    IntentJournal,
    load_journal_state,
    quarantine_journal,
    replay_into,
    rollback_uncommitted,
)


def journal_path(tmp_path):
    return tmp_path / JOURNAL_FILENAME


def write_committed_txn(tmp_path, key="d1"):
    journal = IntentJournal(tmp_path)
    txn = journal.begin("test")
    journal.record(
        txn, "put", "dataset", key, payload={"name": key}, prev=None
    )
    journal.commit(txn, 1)
    journal.close()
    return journal


class TestScan:
    def test_empty_journal_is_clean(self, tmp_path):
        state = load_journal_state(tmp_path)
        assert state.clean
        assert state.committed == 0 and state.uncommitted == []

    def test_committed_txn_reconstructed(self, tmp_path):
        """A scan counts a committed transaction and keeps none of it;
        a replay reconstructs its ops from the file."""
        write_committed_txn(tmp_path)
        state = load_journal_state(tmp_path)
        assert state.clean
        assert state.committed == 1 and state.uncommitted == []
        restored = []

        class Target:
            def restore_payload(self, kind, key, payload):
                restored.append((kind, key, payload))

        assert replay_into(Target(), tmp_path) == 1
        assert restored == [("dataset", "d1", {"name": "d1"})]

    def test_missing_commit_marker_is_uncommitted(self, tmp_path):
        journal = IntentJournal(tmp_path)
        txn = journal.begin("crashed")
        journal.record(txn, "put", "dataset", "d1", payload={"name": "d1"})
        journal.close()  # no commit: the process died here
        state = load_journal_state(tmp_path)
        assert not state.clean
        assert [t.txn_id for t in state.uncommitted] == [txn]

    def test_torn_final_line_detected_not_corrupt(self, tmp_path):
        write_committed_txn(tmp_path)
        with open(journal_path(tmp_path), "a") as handle:
            handle.write('{"type": "op", "txn": "x", "op"')  # torn append
        state = load_journal_state(tmp_path)
        assert state.torn_tail and not state.corrupt
        assert state.committed == 1  # prefix fully usable

    def test_mid_file_garbage_is_corrupt(self, tmp_path):
        write_committed_txn(tmp_path)
        with open(journal_path(tmp_path), "a") as handle:
            handle.write("GARBAGE NOT JSON\n")
            handle.write(json.dumps({"type": "begin", "txn": "t9"}) + "\n")
        state = load_journal_state(tmp_path)
        assert state.corrupt

    def test_quarantine_moves_journal_aside(self, tmp_path):
        write_committed_txn(tmp_path)
        target = quarantine_journal(tmp_path)
        assert target is not None and target.exists()
        assert not journal_path(tmp_path).exists()


class TestTornTailRepair:
    def test_append_after_tear_truncates_first(self, tmp_path):
        write_committed_txn(tmp_path, key="a")
        with open(journal_path(tmp_path), "a") as handle:
            handle.write('{"type": "op", "txn"')  # crash mid-append
        # A new writer must discard the tear before appending, or the
        # tear would end up mid-file and scan as corruption.
        write_committed_txn(tmp_path, key="b")
        state = load_journal_state(tmp_path)
        assert state.clean
        assert state.committed == 2

    def test_parseable_tail_without_newline_also_truncated(self, tmp_path):
        write_committed_txn(tmp_path, key="a")
        with open(journal_path(tmp_path), "a") as handle:
            handle.write('{"type": "begin", "txn": "t", "label": ""}')
        write_committed_txn(tmp_path, key="b")
        # Without truncation the next append would concatenate onto the
        # newline-less tail, producing an unparseable mid-file line.
        state = load_journal_state(tmp_path)
        assert state.clean and not state.corrupt

    def test_tail_found_past_the_read_window(self, tmp_path, monkeypatch):
        """The tail is read backwards from the end: a journal far longer
        than the read window, and a final line longer than it, still
        lose exactly the torn line, and the repair holds one line."""
        import tracemalloc

        from repro.durability import journal as journal_mod

        monkeypatch.setattr(journal_mod, "_TAIL_WINDOW", 1024)
        journal = IntentJournal(tmp_path)
        for i in range(200):
            txn = journal.begin("t")
            journal.record(
                txn, "put", "dataset", f"d{i}",
                payload={"name": f"d{i}", "note": "x" * (5000 if i == 199 else 400)},
            )
            journal.commit(txn, 1)
        journal.close()
        path = journal_path(tmp_path)
        intact = path.stat().st_size
        with open(path, "a") as handle:
            handle.write('{"type": "op", "txn": "t", "payload": "' + "y" * 3000)
        tracemalloc.start()
        try:
            journal_mod.truncate_torn_tail(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == intact > 50 * 1024
        assert peak < 16 * 1024
        write_committed_txn(tmp_path, key="after")
        state = load_journal_state(tmp_path)
        assert state.clean and state.committed == 201


class TestRecovery:
    def test_rollback_restores_prev_payloads(self, tmp_path):
        catalog = MemoryCatalog()
        catalog.add_dataset(Dataset(name="d1"))
        before = catalog.get_dataset("d1").to_dict()
        journal = IntentJournal(tmp_path)
        txn = journal.begin("update")
        new = dict(before)
        new["attributes"] = {"quality": "bad"}
        journal.record(
            txn, "put", "dataset", "d1", payload=new, prev=before
        )
        journal.record(
            txn, "put", "dataset", "d2", payload={**before, "name": "d2"}
        )
        journal.close()  # crash before commit
        # Pretend both ops were applied before the kill.
        catalog.restore_payload("dataset", "d1", new)
        catalog.restore_payload("dataset", "d2", {**before, "name": "d2"})

        state = load_journal_state(tmp_path)
        touched = rollback_uncommitted(catalog, state)
        assert ("dataset", "d1") in touched and ("dataset", "d2") in touched
        assert dict(catalog.get_dataset("d1").attributes) == {}
        assert not catalog.has_dataset("d2")

    def test_rollback_is_idempotent(self, tmp_path):
        catalog = MemoryCatalog()
        journal = IntentJournal(tmp_path)
        txn = journal.begin("add")
        journal.record(
            txn, "put", "dataset", "dx", payload={"name": "dx"}, prev=None
        )
        journal.close()
        state = load_journal_state(tmp_path)
        # Crash could land before the op was applied: rollback of an
        # absent key must not raise, and a second pass changes nothing.
        rollback_uncommitted(catalog, state)
        rollback_uncommitted(catalog, state)
        assert not catalog.has_dataset("dx")

    def test_replay_reconstructs_committed_history(self, tmp_path):
        source = MemoryCatalog()
        journal = IntentJournal(tmp_path, keep_history=True)
        source.attach_journal(journal)
        with source.transaction(label="commit-1"):
            source.add_dataset(Dataset(name="a"))
            source.add_dataset(Dataset(name="b"))
        with source.transaction(label="commit-2"):
            source.remove_dataset("b")
        journal.close()

        rebuilt = MemoryCatalog()
        applied = replay_into(rebuilt, tmp_path)
        assert applied == 3
        assert rebuilt.dataset_names() == ["a"]

    def test_replay_of_a_corrupt_journal_applies_nothing(self, tmp_path):
        write_committed_txn(tmp_path)
        with open(journal_path(tmp_path), "a") as handle:
            handle.write("GARBAGE NOT JSON\n")
            handle.write(json.dumps({"type": "begin", "txn": "t9"}) + "\n")
        rebuilt = MemoryCatalog()
        with pytest.raises(JournalError):
            replay_into(rebuilt, tmp_path)
        assert rebuilt.counts()["dataset"] == 0

    def test_replay_skips_uncommitted(self, tmp_path):
        journal = IntentJournal(tmp_path)
        txn = journal.begin("lost")
        journal.record(
            txn, "put", "dataset", "ghost", payload={"name": "ghost"}
        )
        journal.close()
        rebuilt = MemoryCatalog()
        assert replay_into(rebuilt, tmp_path) == 0
        assert not rebuilt.has_dataset("ghost")


class TestCheckpoint:
    def test_checkpoint_truncates(self, tmp_path):
        write_committed_txn(tmp_path)
        journal = IntentJournal(tmp_path)
        journal.checkpoint()
        journal.close()
        assert journal_path(tmp_path).stat().st_size == 0
        assert load_journal_state(tmp_path).clean

    def test_size_is_counted_not_stat_ed(self, tmp_path, syscalls):
        """Commits decide on checkpointing from the byte count the
        writer keeps: seeded from the file when it is opened, advanced
        by every append, reset by a truncation."""
        write_committed_txn(tmp_path, key="caf\u00e9")  # escaped: ASCII bytes
        seeded = journal_path(tmp_path).stat().st_size
        journal = IntentJournal(tmp_path)
        journal.commit(journal.begin("opens the file"), 0)
        syscalls.clear()
        for i in range(3):
            txn = journal.begin("t")
            journal.record(txn, "put", "dataset", f"d{i}", payload={"n": "\u00e9"})
            journal.commit(txn, 1)
        assert dict(syscalls) == {}
        assert journal._size == journal_path(tmp_path).stat().st_size > seeded
        journal.checkpoint()
        assert journal._size == 0
        txn = journal.begin("after")
        journal.commit(txn, 0)
        assert journal._size == journal_path(tmp_path).stat().st_size
        journal.close()

    def test_large_committed_journal_is_checkpointed(
        self, tmp_path, monkeypatch
    ):
        from repro.durability import journal as journal_mod

        monkeypatch.setattr(journal_mod, "CHECKPOINT_BYTES", 400)
        journal = IntentJournal(tmp_path)
        sizes = []
        for i in range(6):
            txn = journal.begin("t")
            journal.record(txn, "put", "dataset", f"d{i}", payload={"n": i})
            journal.commit(txn, 1)
            sizes.append(journal_path(tmp_path).stat().st_size)
        journal.close()
        assert 0 in sizes  # truncated once the committed history passed 400
        assert max(sizes) < 400 + 400
        assert load_journal_state(tmp_path).clean

    def test_commit_counts_metric(self, tmp_path):
        from repro.observability.instrument import Instrumentation

        obs = Instrumentation()
        journal = IntentJournal(tmp_path, instrumentation=obs)
        txn = journal.begin("metered")
        journal.commit(txn, 0)
        journal.close()
        metrics = obs.metrics.to_dict()
        assert any("durability.journal.commits" in k for k in metrics)


def test_journal_and_recorder_import_first():
    """The journal reads through the recorder's line reader, and the
    recorder imports the durability package: either may be the first
    module a process imports."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    for module in ("repro.observability.recorder", "repro.durability.journal"):
        subprocess.run(
            [sys.executable, "-c", f"import {module}"], check=True, env=env
        )
