"""File-tree virtual data catalog backend.

The "hierarchical directory such as a file system" realization of the
VDC (§3): one directory per object kind, each an append-only ``segment``
of ``<percent-encoded key> <sorted-key JSON>`` lines (a key alone is a
tombstone; a key's last line wins).  A crash tears at most the last
line: the open skips it, the next append cuts it off, ``repro fsck``
reports it.  The open compacts a segment whose dead lines outweigh its
live ones.  Older trees' ``<key>.json`` files (one per document, some
indented) still open, as a base layer that segment lines shadow.
"""

from __future__ import annotations

import json
import os
import weakref
from pathlib import Path
from typing import Iterator, Optional
from urllib.parse import quote, unquote

from repro.catalog.base import KINDS, VirtualDataCatalog
from repro.durability.atomic import atomic_write_bytes

SEGMENT = "segment"
#: A directory entry is ``offset << _SHIFT | length`` of the key's line.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
#: The entry of a key that only its ``<key>.json`` file holds.
_LEGACY = -1


def _close(fds: dict[str, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


class FileTreeCatalog(VirtualDataCatalog):
    """A catalog persisted as a directory tree of append-only segments.

    A handle's view is what it found at open plus what it wrote: each
    segment is scanned once, at open, into a directory of where each
    live key's line lies, and a read is one ``pread``.  A handle whose
    segment another one compacted rescans it before its next append.
    """

    def __init__(
        self,
        root: str | Path,
        authority: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(authority=authority, **kwargs)
        self._root = Path(root)
        #: kind -> its directory as a string prefix, separator included.
        self._prefix: dict[str, str] = {}
        #: kind -> key -> its line's entry (``_SHIFT``), or ``_LEGACY``.
        self._directory: dict[str, dict[str, int]] = {}
        #: kind -> its segment, open for appends and ``pread``.
        self._fds: dict[str, int] = {}
        #: kind -> the valid length of a segment with a torn last line.
        self._torn: dict[str, int] = {}
        #: Kinds appended to since the last transaction commit.
        self._unsynced: set[str] = set()
        self._finalizer = weakref.finalize(self, _close, self._fds)
        for kind in KINDS:
            kind_dir = self._root / kind
            kind_dir.mkdir(parents=True, exist_ok=True)
            self._prefix[kind] = os.path.join(kind_dir, "")
            self._load(kind, compact=True)
        self._rebuild_indexes()

    @property
    def root(self) -> Path:
        return self._root

    def storage_directories(self) -> list[Path]:
        return [self._root / kind for kind in KINDS]

    def close(self) -> None:
        """Close the segments (idempotent; dropping the handle does)."""
        self._finalizer()

    def torn_segments(self, truncate: bool = False) -> list[Path]:
        torn = [Path(self._prefix[kind] + SEGMENT) for kind in self._torn]
        for kind in list(self._torn) if truncate else ():
            os.ftruncate(self._fds[kind], self._torn.pop(kind))
        return torn

    def _load(self, kind: str, compact: bool = False) -> None:
        """(Re)open the kind's segment and scan it, and the names of
        its legacy files, into the directory; decode no document."""
        if kind in self._fds:
            os.close(self._fds.pop(kind))
        prefix = self._prefix[kind]
        fd = self._fds[kind] = os.open(
            prefix + SEGMENT, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        legacy = [n[: -len(".json")] for n in os.listdir(prefix) if n.endswith(".json")]
        directory = self._directory[kind] = {unquote(n): _LEGACY for n in legacy}
        self._torn.pop(kind, None)
        size = 0  # of the whole lines
        with open(fd, "rb", closefd=False) as segment:
            for line in segment:
                if line[-1:] != b"\n":  # a torn last line
                    self._torn[kind] = size
                    break
                sep = line.find(b" ")  # none: a tombstone
                key = unquote(line[:sep].decode())
                if sep < 0:
                    directory.pop(key, None)
                else:
                    directory[key] = size << _SHIFT | len(line)
                size += len(line)
        live = sorted(e for e in directory.values() if e != _LEGACY)
        hidden = sorted(n + "\n" for n in legacy if unquote(n) not in directory)
        kept = sum(e & _MASK for e in live) + len("".join(hidden))
        if compact and size > 2 * kept:
            # Dead lines outweigh live ones: keep the live lines, in
            # order, and the tombstones that hide a legacy file.
            data = [os.pread(fd, e & _MASK, e >> _SHIFT) for e in live]
            data.append("".join(hidden).encode())
            atomic_write_bytes(prefix + SEGMENT, b"".join(data))
            self._load(kind)

    def _append(self, kind: str, records: list[tuple[str, Optional[str]]]):
        """Append ``(key, JSON, or None for a tombstone)`` lines in one
        write and point the directory at them."""
        lines = [
            quote(key, safe="") + ("\n" if doc is None else f" {doc}\n")
            for key, doc in records
        ]
        data = "".join(lines).encode()  # ASCII: str and bytes lengths agree
        if os.fstat(self._fds[kind]).st_nlink == 0:  # another handle compacted it
            self._load(kind)
        if self._torn:
            self.torn_segments(truncate=True)
        fd = self._fds[kind]
        # Torn until the whole write lands: a failed one is cut off next.
        self._torn[kind] = os.lseek(fd, 0, os.SEEK_END)
        view = memoryview(data)
        while view:  # one write unless the kernel takes less
            view = view[os.write(fd, view) :]
        del self._torn[kind]
        self._unsynced.add(kind)
        offset = os.lseek(fd, 0, os.SEEK_CUR) - len(data)
        directory = self._directory[kind]
        for (key, doc), line in zip(records, lines):
            if doc is None:
                directory.pop(key, None)
            else:
                directory[key] = offset << _SHIFT | len(line)
            offset += len(line)

    def _txn_commit(self) -> None:
        # A journal that fsyncs its commit marker (power loss) gets the
        # segments the transaction wrote on disk before it.
        if self._journal is not None and self._journal.fsync:
            for kind in self._unsynced:
                os.fsync(self._fds[kind])
        self._unsynced.clear()

    # -- storage primitives -------------------------------------------------

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        self._store_put_many(kind, [(key, payload)])

    def _store_put_many(
        self, kind: str, items: list[tuple[str, dict]]
    ) -> None:
        self._append(
            kind, [(k, json.dumps(p, sort_keys=True)) for k, p in items]
        )

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        entry = self._directory[kind].get(key)
        if entry is None:
            return None
        if entry != _LEGACY:
            line = os.pread(self._fds[kind], entry & _MASK, entry >> _SHIFT)
            return json.loads(line[line.find(b" ") + 1 :])
        try:
            path = self._prefix[kind] + quote(key, safe="") + ".json"
            with open(path, "rb") as handle:
                return json.loads(handle.read())
        except FileNotFoundError:
            del self._directory[kind][key]
            return None

    def _store_scan(self, kind: str) -> Iterator[tuple[str, dict]]:
        """Legacy documents, then live lines in segment order, each
        read and decoded once."""
        directory = self._directory[kind]
        for key in sorted(directory, key=directory.__getitem__):
            payload = self._store_get(kind, key)
            if payload is not None:
                yield key, payload

    def _store_delete(self, kind: str, key: str) -> None:
        if key in self._directory[kind]:
            self._append(kind, [(key, None)])

    def _store_keys(self, kind: str) -> list[str]:
        return list(self._directory[kind])

    def _store_has(self, kind: str, key: str) -> bool:
        return key in self._directory[kind]
