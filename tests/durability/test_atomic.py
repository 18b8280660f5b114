"""Tests for the atomic file-replacement helpers."""

import itertools
import json
import os

import pytest

from repro.durability import atomic
from repro.durability.atomic import (
    TMP_MARKER,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    sweep_temporaries,
)


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_leaves_no_temporaries_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "content")
        leftovers = [p for p in tmp_path.iterdir() if TMP_MARKER in p.name]
        assert leftovers == []

    def test_json_round_trips_with_trailing_newline(self, tmp_path):
        target = tmp_path / "result.json"
        atomic_write_json(target, {"b": 2, "a": [1, 2]})
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [1, 2], "b": 2}

    def test_json_compact_mode(self, tmp_path):
        target = tmp_path / "compact.json"
        atomic_write_json(target, {"k": 1}, indent=None)
        assert target.read_text() == '{"k": 1}\n'

    def test_fsync_variant_still_lands(self, tmp_path):
        target = tmp_path / "durable.txt"
        atomic_write_text(target, "synced", fsync=True)
        assert target.read_text() == "synced"

    def test_failed_serialization_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "keep.json"
        atomic_write_json(target, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        # Old content survives; no temp debris accumulates forever.
        assert json.loads(target.read_text()) == {"ok": True}


class TestTemporaries:
    """A write is create (exclusive), write, rename; the temporary is
    named ``<final>.vdg-tmp<pid>-<n>``."""

    def test_string_paths_come_back_as_given(self, tmp_path):
        target = os.path.join(tmp_path, "plain.txt")
        assert atomic_write_text(target, "x") is target
        assert atomic_write_text(tmp_path / "p.txt", "x") == tmp_path / "p.txt"

    def test_colliding_leftover_is_stepped_over(self, tmp_path, monkeypatch):
        # A dead process with this pid left the very name we would use.
        monkeypatch.setattr(atomic, "_tmp_ordinal", itertools.count(0))
        target = tmp_path / "doc.json"
        leftover = tmp_path / f"doc.json{TMP_MARKER}{os.getpid()}-0"
        leftover.write_bytes(b"someone else's partial write")

        atomic_write_bytes(target, b"whole")

        assert target.read_bytes() == b"whole"
        assert leftover.read_bytes() == b"someone else's partial write"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [target.name, leftover.name]
        )
        assert sweep_temporaries(tmp_path) == [leftover]

    def test_failed_rename_removes_the_temporary(self, tmp_path, monkeypatch):
        target = tmp_path / "keep.txt"
        target.write_text("old")

        def refuse(src, dst):
            raise OSError("no rename today")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no rename today"):
            atomic_write_text(target, "new")
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
        assert target.read_text() == "old"

    def test_temporary_is_private_until_renamed(self, tmp_path, monkeypatch):
        seen = {}
        real_replace = os.replace

        def spy(src, dst):
            seen["name"] = os.path.basename(src)
            seen["mode"] = os.stat(src).st_mode & 0o777
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write_text(tmp_path / "a.txt", "content")
        assert seen["name"].startswith(f"a.txt{TMP_MARKER}{os.getpid()}-")
        assert seen["mode"] & 0o077 == 0


class TestSweep:
    def test_removes_only_marked_files(self, tmp_path):
        keep = tmp_path / "data.json"
        keep.write_text("{}")
        stale = tmp_path / f"data.json{TMP_MARKER}abc123"
        stale.write_text("partial")
        removed = sweep_temporaries(tmp_path)
        assert removed == [stale]
        assert keep.exists() and not stale.exists()

    def test_missing_directory_is_noop(self, tmp_path):
        assert sweep_temporaries(tmp_path / "nope") == []

    def test_does_not_recurse(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        nested = sub / f"x{TMP_MARKER}1"
        nested.write_text("partial")
        assert sweep_temporaries(tmp_path) == []
        assert nested.exists()
