"""File-tree virtual data catalog backend.

The "hierarchical directory such as a file system" realization of the
VDC (§3): one directory per object kind, one JSON document per object
(one line, sorted keys, trailing newline; documents indented by
earlier versions read back unchanged).  Keys are percent-encoded into
file names so arbitrary object names (``example1::t1@1.0``) stay
filesystem-safe.
"""

from __future__ import annotations

import contextlib
import json
import os
import urllib.parse
from pathlib import Path
from typing import Optional

from repro.catalog.base import KINDS, VirtualDataCatalog
from repro.durability.atomic import atomic_write_json


class FileTreeCatalog(VirtualDataCatalog):
    """A catalog persisted as a directory tree of JSON documents.

    Reopening a :class:`FileTreeCatalog` on an existing directory
    recovers the full catalog, including relationship indexes.

    A handle's view of the tree is what it found at open plus what it
    wrote — the rule the relationship indexes and the payload cache
    already follow.  The set of stored keys is listed once, at open,
    and kept current by every put and delete, so membership, key
    listings and a lookup of an unknown key touch no filesystem.  A
    document removed behind the handle's back reads as not found and
    leaves the directory; one added behind it is not seen until reopen.
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
        #: kind -> stored keys (a dict for its insertion order).
        self._directory: dict[str, dict[str, None]] = {}
        for kind in KINDS:
            kind_dir = self._root / kind
            kind_dir.mkdir(parents=True, exist_ok=True)
            self._prefix[kind] = os.path.join(kind_dir, "")
            self._directory[kind] = {
                urllib.parse.unquote(name[: -len(".json")]): None
                for name in os.listdir(kind_dir)
                if name.endswith(".json")
            }
        self._rebuild_indexes()

    @property
    def root(self) -> Path:
        return self._root

    def storage_directories(self) -> list[Path]:
        return [self._root / kind for kind in KINDS]

    # -- storage primitives -------------------------------------------------

    def _path(self, kind: str, key: str) -> str:
        return self._prefix[kind] + urllib.parse.quote(key, safe="") + ".json"

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        # Create, write, rename; a crash in between leaves a
        # ``.vdg-tmp`` file that ``repro fsck`` reports and removes.
        atomic_write_json(self._path(kind, key), payload, indent=None)
        self._directory[kind][key] = None

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        if key not in self._directory[kind]:
            return None
        try:
            with open(self._path(kind, key), "rb") as handle:
                return json.loads(handle.read())
        except FileNotFoundError:
            del self._directory[kind][key]
            return None

    def _store_delete(self, kind: str, key: str) -> None:
        if key in self._directory[kind]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._path(kind, key))
            del self._directory[kind][key]

    def _store_keys(self, kind: str) -> list[str]:
        return list(self._directory[kind])

    def _store_has(self, kind: str, key: str) -> bool:
        return key in self._directory[kind]
