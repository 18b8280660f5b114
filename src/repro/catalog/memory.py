"""In-memory virtual data catalog backend.

The default backend for interactive use, planning scratch space, and
simulation workloads: nothing persists beyond the process.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.catalog.base import _DECODERS, KINDS, VirtualDataCatalog


class MemoryCatalog(VirtualDataCatalog):
    """A catalog whose storage is one dictionary of records per kind.

    A put keeps the private record the base class made of the caller's
    object (one copy, canonicalized as decoding its document would be),
    and every reader shares it read-only: there is no document to
    decode and nothing to cache.  Documents exist only where they leave
    the catalog — ``_store_get`` and ``export_snapshot`` encode a fresh
    one, owned by the caller — and where they enter it: an imported
    snapshot or a restored payload is decoded into records.  Callers
    can therefore never mutate stored state behind the catalog's back:
    the same isolation a real service boundary would provide.
    """

    _stores_records = True

    def __init__(self, authority: Optional[str] = None, **kwargs):
        # Before the base class builds the indexes: their graph loads
        # through the store (see _derivation_loader).
        self._data: dict[str, dict[str, Any]] = {kind: {} for kind in KINDS}
        super().__init__(authority=authority, **kwargs)

    # -- records ------------------------------------------------------------

    def _put_record(
        self, kind: str, key: str, record: Any, payload: Optional[dict]
    ) -> None:
        self._data[kind][key] = record

    def _invalidate_cached(self, event: str, kind: str, key: str) -> None:
        pass  # no record cache

    def _at_rest(
        self, kind: str, key: str, keep: bool = True
    ) -> Optional[Any]:
        return self._data[kind].get(key)

    def _scan(self, kind: str) -> Iterator[tuple[str, Any]]:
        return iter(self._data[kind].items())

    def _derivation_loader(self) -> Callable[[str], Any]:
        # The store's own lookup: one dict read on the graph's hot path,
        # unsynchronized, and no reference to the catalog.  A miss
        # raises KeyError, which _record turns into NotFoundError.
        return self._data["derivation"].__getitem__

    # -- documents ----------------------------------------------------------

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        self._data[kind][key] = _DECODERS[kind](payload)

    def _store_put_many(
        self, kind: str, items: list[tuple[str, dict]]
    ) -> None:
        decode = _DECODERS[kind]
        self._data[kind].update((key, decode(payload)) for key, payload in items)

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        record = self._data[kind].get(key)
        return record.to_dict() if record is not None else None

    def _store_delete(self, kind: str, key: str) -> None:
        self._data[kind].pop(key, None)

    def _store_keys(self, kind: str) -> list[str]:
        return list(self._data[kind])

    def _store_has(self, kind: str, key: str) -> bool:
        return key in self._data[kind]
