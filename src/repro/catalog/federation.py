"""Federated indexes over multiple virtual data catalogs (Fig 4).

"A variety of federated indexes integrate information about selected
objects from multiple such catalogs.  Presumably such federating
indexes would be differentiated according to their scope (user
interest, all community data, community approved data, etc.), accuracy
(depth of index, update frequency), cost, access control, and so
forth." (§4.1)

:class:`FederatedIndex` implements exactly those axes:

* **scope** — which catalogs are attached, plus an optional per-entry
  filter (e.g. "community approved data" via a quality attribute);
* **depth** — ``"shallow"`` indexes names and types only; ``"deep"``
  also indexes attribute snapshots, enabling attribute queries at the
  index without touching member catalogs;
* **freshness** — ``"live"`` subscribes to catalog change events;
  ``"periodic"`` indexes go stale until :meth:`refresh` is called (the
  staleness/latency trade-off is measured by the FIG4 benchmark).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.core.naming import VDPRef
from repro.core.types import DatasetType, TypeRegistry, default_registry
from repro.errors import FederationError


@dataclass(frozen=True)
class IndexEntry:
    """One indexed object: enough metadata to answer discovery queries
    and a :class:`VDPRef` to fetch the full record from its catalog."""

    kind: str
    key: str
    authority: str
    name: str
    dataset_type: Optional[DatasetType] = None
    attributes: tuple[tuple[str, Any], ...] = ()

    def ref(self) -> VDPRef:
        ref_kind = self.kind if self.kind in (
            "dataset", "replica", "transformation", "derivation", "invocation"
        ) else None
        return VDPRef(name=self.name, authority=self.authority, kind=ref_kind)

    def attribute(self, key: str, default: Any = None) -> Any:
        for k, v in self.attributes:
            if k == key:
                return v
        return default


#: Filter predicate deciding whether an entry belongs in an index.
EntryFilter = Callable[[IndexEntry], bool]


class FederatedIndex:
    """An index integrating object metadata from multiple catalogs."""

    def __init__(
        self,
        name: str,
        depth: str = "shallow",
        mode: str = "live",
        kinds: tuple[str, ...] = ("dataset", "transformation", "derivation"),
        entry_filter: Optional[EntryFilter] = None,
        registry: Optional[TypeRegistry] = None,
    ):
        if depth not in ("shallow", "deep"):
            raise FederationError(f"invalid index depth {depth!r}")
        if mode not in ("live", "periodic"):
            raise FederationError(f"invalid index mode {mode!r}")
        self.name = name
        self.depth = depth
        self.mode = mode
        self.kinds = kinds
        self.entry_filter = entry_filter
        self.types = registry or default_registry()
        self._members: list[VirtualDataCatalog] = []
        # (kind, authority, key) -> IndexEntry
        self._entries: dict[tuple[str, str, str], IndexEntry] = {}
        #: Count of member-catalog mutations not yet reflected (periodic
        #: mode only); a staleness measure for the FIG4 benchmark.
        self.pending_updates = 0

    # -- membership ----------------------------------------------------------

    def attach(self, catalog: VirtualDataCatalog) -> None:
        """Add a member catalog and index its current contents."""
        if not catalog.authority:
            raise FederationError(
                "only catalogs with an authority can be federated"
            )
        if catalog in self._members:
            return
        self._members.append(catalog)
        catalog.subscribe(self._make_listener(catalog))
        self._index_catalog(catalog)

    def _make_listener(self, catalog: VirtualDataCatalog):
        def listener(event: str, kind: str, key: str) -> None:
            if kind not in self.kinds:
                return
            if self.mode == "periodic":
                self.pending_updates += 1
                return
            if event == "delete":
                self._entries.pop((kind, catalog.authority, key), None)
            else:
                self._index_object(catalog, kind, key)

        return listener

    def members(self) -> list[str]:
        return [c.authority for c in self._members]

    # -- maintenance ------------------------------------------------------------

    def refresh(self) -> int:
        """Rebuild the index by scanning all members; returns entry count.

        For ``periodic`` indexes this is the explicit update step; for
        ``live`` indexes it repairs any divergence.
        """
        self._entries.clear()
        for catalog in self._members:
            self._index_catalog(catalog)
        self.pending_updates = 0
        return len(self._entries)

    def _index_catalog(self, catalog: VirtualDataCatalog) -> None:
        if "dataset" in self.kinds:
            for key in catalog.dataset_names():
                self._index_object(catalog, "dataset", key)
        if "transformation" in self.kinds:
            for key in catalog._store_keys("transformation"):
                self._index_object(catalog, "transformation", key)
        if "derivation" in self.kinds:
            for key in catalog.derivation_names():
                self._index_object(catalog, "derivation", key)

    def _index_object(
        self, catalog: VirtualDataCatalog, kind: str, key: str
    ) -> None:
        entry = self._build_entry(catalog, kind, key)
        if entry is None:
            return
        if self.entry_filter is not None and not self.entry_filter(entry):
            self._entries.pop((kind, catalog.authority, key), None)
            return
        self._entries[(kind, catalog.authority, key)] = entry

    def _build_entry(
        self, catalog: VirtualDataCatalog, kind: str, key: str
    ) -> Optional[IndexEntry]:
        authority = catalog.authority
        if kind == "dataset":
            if not catalog.has_dataset(key):
                return None
            ds = catalog.get_dataset(key)
            attrs = (
                tuple(sorted(ds.attributes.as_dict().items()))
                if self.depth == "deep"
                else ()
            )
            return IndexEntry(
                kind=kind,
                key=key,
                authority=authority,
                name=ds.name,
                dataset_type=ds.dataset_type,
                attributes=attrs,
            )
        if kind == "transformation":
            payload = catalog._store_get("transformation", key)
            if payload is None:
                return None
            attrs = (
                tuple(sorted(payload.get("attributes", {}).items()))
                if self.depth == "deep"
                else ()
            )
            return IndexEntry(
                kind=kind,
                key=key,
                authority=authority,
                name=payload["name"],
                attributes=attrs,
            )
        if kind == "derivation":
            if not catalog.has_derivation(key):
                return None
            dv = catalog.get_derivation(key)
            attrs = (
                tuple(sorted(dv.attributes.as_dict().items()))
                if self.depth == "deep"
                else ()
            )
            return IndexEntry(
                kind=kind,
                key=key,
                authority=authority,
                name=dv.name,
                attributes=attrs,
            )
        return None

    # -- queries ---------------------------------------------------------------

    def find(
        self,
        kind: str,
        name_glob: Optional[str] = None,
        conforms_to: Optional[DatasetType] = None,
        attributes: Optional[dict[str, Any]] = None,
    ) -> list[IndexEntry]:
        """Discovery over the index without touching member catalogs.

        Attribute queries require a ``deep`` index; asking them of a
        shallow index raises :class:`~repro.errors.FederationError`
        (the shallow index genuinely does not have the data — the
        cost/accuracy trade-off of §4.1).
        """
        if attributes and self.depth != "deep":
            raise FederationError(
                f"index {self.name!r} is shallow; attribute queries need "
                f"a deep index"
            )
        out = []
        for (entry_kind, _, _), entry in sorted(self._entries.items()):
            if entry_kind != kind:
                continue
            if name_glob and not fnmatch.fnmatchcase(entry.name, name_glob):
                continue
            if conforms_to is not None:
                if entry.dataset_type is None:
                    continue
                if not self.types.conforms(entry.dataset_type, conforms_to):
                    continue
            if attributes and not all(
                entry.attribute(k) == v for k, v in attributes.items()
            ):
                continue
            out.append(entry)
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<FederatedIndex {self.name!r} depth={self.depth} "
            f"mode={self.mode} entries={len(self._entries)} "
            f"members={self.members()}>"
        )


def scan_catalogs(
    catalogs: list[VirtualDataCatalog],
    kind: str,
    name_glob: Optional[str] = None,
    conforms_to: Optional[DatasetType] = None,
    attributes: Optional[dict[str, Any]] = None,
) -> list[tuple[str, str]]:
    """The *unindexed* baseline: scan every catalog directly.

    Returns ``(authority, key)`` pairs.  The FIG4 benchmark compares
    this against :meth:`FederatedIndex.find` as catalog count and
    catalog size grow.
    """
    out = []
    for catalog in catalogs:
        authority = catalog.authority or "local"
        if kind == "dataset":
            for ds in catalog.find_datasets(
                name_glob=name_glob,
                conforms_to=conforms_to,
                attributes=attributes,
            ):
                out.append((authority, ds.name))
        elif kind == "transformation":
            for tr in catalog.find_transformations(
                name_glob=name_glob, attributes=attributes
            ):
                out.append((authority, tr.name))
        elif kind == "derivation":
            for dv in catalog.find_derivations(name_glob=name_glob):
                out.append((authority, dv.name))
    return out
