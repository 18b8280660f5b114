"""In-memory virtual data catalog backend.

The default backend for interactive use, planning scratch space, and
simulation workloads: nothing persists beyond the process.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.catalog.base import KINDS, VirtualDataCatalog
from repro.catalog.payloads import json_copy


class MemoryCatalog(VirtualDataCatalog):
    """A catalog whose storage is a pair of nested dictionaries.

    A put keeps the document it is handed (the base class serializes a
    fresh one per write and shares it read-only); what is not the
    catalog's own — a snapshot being imported, a ``_store_get`` result
    — is deep-copied, so callers can never mutate stored state behind
    the catalog's back: the same isolation a real service boundary
    would provide.
    """

    def __init__(self, authority: Optional[str] = None, **kwargs):
        super().__init__(authority=authority, **kwargs)
        self._data: dict[str, dict[str, dict]] = {kind: {} for kind in KINDS}

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        self._data[kind][key] = payload

    def _store_put_many(
        self, kind: str, items: list[tuple[str, dict]]
    ) -> None:
        # A snapshot's documents stay the importer's.
        self._data[kind].update(
            (key, json_copy(payload)) for key, payload in items
        )

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        payload = self._data[kind].get(key)
        return json_copy(payload) if payload is not None else None

    def _store_delete(self, kind: str, key: str) -> None:
        self._data[kind].pop(key, None)

    def _store_keys(self, kind: str) -> list[str]:
        return list(self._data[kind])

    def _store_peek(self, kind: str, key: str) -> Optional[dict]:
        # The stored document itself (no isolation copy); the
        # base-class contract makes the caller promise read-only.
        return self._data[kind].get(key)

    def _store_scan(self, kind: str) -> Iterator[tuple[str, dict]]:
        # Yields the stored documents themselves (no isolation copy);
        # the base-class contract makes the caller promise read-only.
        yield from self._data[kind].items()

    def _store_has(self, kind: str, key: str) -> bool:
        return key in self._data[kind]
