"""Atomic file replacement: no reader ever sees a torn write.

Every on-disk artifact the grid writes whole — catalog documents,
rescue files, fault plans, observability snapshots, exported traces,
benchmark results — goes through these helpers: the content lands in
a temporary created exclusively in the *destination directory* (same
filesystem, so the final rename cannot degrade to a copy) and is moved
into place with ``os.replace``, which POSIX guarantees to be atomic.
A write is exactly create, write, rename.  A process killed mid-write
leaves at worst an orphaned ``*.vdg-tmp*`` file (``repro fsck`` reports
and removes it), never a half-written artifact under the real name.

Append-only streams (the flight recorder, the intent journal) are the
other durability idiom — they tolerate torn *tails* instead — so they
do not use this module.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from pathlib import Path
from typing import Any

#: Suffix marking in-flight temporaries (fsck sweeps stale ones).
TMP_MARKER = ".vdg-tmp"

#: Temporaries are named ``<final><TMP_MARKER><pid>-<n>``: unique among
#: live writers, threads and forked workers included.
_tmp_ordinal = itertools.count()


def atomic_write_bytes(
    path: str | Path, data: bytes, fsync: bool = False
) -> str | Path:
    """Write ``data`` to ``path`` atomically; returns the path.

    With ``fsync`` the bytes are forced to stable storage before the
    rename, making the replacement durable across power loss, not just
    process death.  The default skips it: for most artifacts process
    crash (SIGKILL) is the failure model and the rename alone keeps
    readers consistent.
    """
    final = os.fspath(path)
    fd = None
    while fd is None:
        tmp = f"{final}{TMP_MARKER}{os.getpid()}-{next(_tmp_ordinal)}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        except FileExistsError:
            pass  # a dead process with our pid left it: take the next
    try:
        try:
            view = memoryview(data)
            while view:  # one write unless the kernel takes less
                view = view[os.write(fd, view):]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, final)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(
    path: str | Path, text: str, fsync: bool = False
) -> str | Path:
    """Atomic ``Path.write_text`` replacement (UTF-8)."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: str | Path,
    payload: Any,
    indent: int | None = 2,
    fsync: bool = False,
) -> str | Path:
    """Serialize ``payload`` as JSON and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    return atomic_write_text(path, text, fsync=fsync)


def sweep_temporaries(directory: str | Path) -> list[Path]:
    """Remove stale ``*.vdg-tmp*`` files a crash left behind.

    Returns the paths removed (for fsck reporting).  Only files
    directly inside ``directory`` are considered.
    """
    directory = Path(directory)
    removed: list[Path] = []
    if not directory.is_dir():
        return removed
    for child in sorted(directory.iterdir()):
        if child.is_file() and TMP_MARKER in child.name:
            child.unlink(missing_ok=True)
            removed.append(child)
    return removed
