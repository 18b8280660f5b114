"""Catalog fast paths: secondary indexes and a decoded-payload cache.

Real virtual-data campaigns push tens of thousands of derivations into
a catalog (*Virtual Data in CMS Production*, cs/0306009), and lineage
queries — "which derivations produce/consume this dataset", "which
replicas exist" — are the planner's hottest loop.  This module gives
every backend two fast paths:

* :class:`CatalogIndexes` — incremental producer/consumer/replica/
  invocation/by-transformation indexes, maintained through the
  catalog's mutation-subscriber hook (the same change-event stream the
  federated index of Fig 4 consumes), so lineage queries are O(1) dict
  lookups instead of full-store scans;
* :class:`PayloadCache` — a bounded LRU of decoded payload documents,
  invalidated by the same mutation events, so repeated lookups skip
  the backend's disk read / JSON decode entirely.

Both structures observe events only; the storage primitives remain the
single source of truth and :meth:`CatalogIndexes.rebuild` reconstructs
everything from a cold store (catalog open).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional

from repro.core.invocation import observe_invocation_id
from repro.core.naming import VDPRef
from repro.core.replica import observe_replica_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.base import VirtualDataCatalog

#: Default number of decoded payloads kept hot.  A whole SDSS stripe
#: (~5000 derivations plus their datasets) fits with room to spare.
DEFAULT_CACHE_CAPACITY = 8192


class PayloadCache:
    """A bounded LRU of decoded ``(kind, key) -> payload`` documents.

    The cache owns its payloads: callers must copy before mutating
    (the catalog deep-copies on the way out, preserving each backend's
    isolation contract).  ``hits``/``misses`` are plain counters read
    by the benchmarks and mirrored into the metrics registry by the
    catalog.

    An entry may also carry the object *decoded* from its payload
    (:meth:`decoded` / :meth:`set_decoded`).  The decoded form lives
    and dies with the payload it came from: a new ``put``, an
    ``invalidate``, an eviction or ``clear`` drops it, so whatever
    already keeps the payload honest keeps the decoded form honest.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self._decoded: dict[tuple[str, str], Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: str, key: str) -> Optional[dict]:
        entry = self._entries.get((kind, key))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((kind, key))
        self.hits += 1
        return entry

    def put(self, kind: str, key: str, payload: dict) -> None:
        entries = self._entries
        entries[(kind, key)] = payload
        entries.move_to_end((kind, key))
        self._decoded.pop((kind, key), None)
        while len(entries) > self.capacity:
            evicted, _ = entries.popitem(last=False)
            self._decoded.pop(evicted, None)

    def decoded(self, kind: str, key: str) -> Optional[Any]:
        """The object decoded from the cached payload, if one is kept."""
        return self._decoded.get((kind, key))

    def set_decoded(self, kind: str, key: str, obj: Any) -> None:
        """Keep ``obj`` for as long as the cached payload stays put."""
        if (kind, key) in self._entries:
            self._decoded[(kind, key)] = obj

    def invalidate(self, kind: str, key: str) -> None:
        self._entries.pop((kind, key), None)
        self._decoded.pop((kind, key), None)

    def clear(self) -> None:
        self._entries.clear()
        self._decoded.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }


def _derivation_edges(payload: dict) -> tuple[set[str], set[str], str]:
    """(inputs, outputs, transformation name) straight off a payload."""
    inputs: set[str] = set()
    outputs: set[str] = set()
    for actual in payload.get("actuals", {}).values():
        if not isinstance(actual, dict):
            continue
        direction = actual.get("direction", "input")
        if direction in ("input", "inout"):
            inputs.add(actual["dataset"])
        if direction in ("output", "inout"):
            outputs.add(actual["dataset"])
    tr_name = VDPRef.parse(
        payload["transformation"], default_kind="transformation"
    ).name
    return inputs, outputs, tr_name


class CatalogIndexes:
    """Secondary indexes kept current by catalog mutation events.

    The catalog registers :meth:`on_event` as its first mutation
    subscriber, so by the time any external listener (federation, a
    test) observes a ``put``/``delete`` the indexes already reflect it.
    Deletions are unindexed from per-key *shadow* records captured at
    put time — the store no longer holds the payload when a delete
    event fires, so the index must remember what it indexed.
    """

    def __init__(self, catalog: "VirtualDataCatalog"):
        self._catalog = catalog
        #: dataset -> derivation names that output it.
        self.produced_by: dict[str, set[str]] = {}
        #: dataset -> derivation names that read it.
        self.consumed_by: dict[str, set[str]] = {}
        #: dataset -> replica ids.
        self.replicas_of: dict[str, set[str]] = {}
        #: derivation -> invocation ids.
        self.invocations_of: dict[str, set[str]] = {}
        #: transformation name -> registered version strings.
        self.tr_versions: dict[str, set[str]] = {}
        #: transformation name -> derivation names calling it.
        self.by_transformation: dict[str, set[str]] = {}
        #: transformation name -> stamp of the last change to anything
        #: a cost model reads: its registered versions, the derivations
        #: calling it, their invocations.  Stamps come from one counter
        #: that :meth:`clear` never resets, so a value is never reused
        #: for a different history, rollbacks and rebuilds included.
        self.history_stamp: dict[str, int] = {}
        self._stamps = 0
        # Shadows for event-driven unindexing.
        self._derivation_shadow: dict[str, tuple[set[str], set[str], str]] = {}
        self._replica_shadow: dict[str, str] = {}
        self._invocation_shadow: dict[str, str] = {}
        catalog.subscribe(self.on_event)

    # -- event plumbing ---------------------------------------------------

    def on_event(self, event: str, kind: str, key: str) -> None:
        if kind == "derivation":
            if event == "put":
                self._index_derivation(key)
            else:
                self._unindex_derivation(key)
        elif kind == "replica":
            if event == "put":
                self._index_replica(key)
            else:
                self._unindex_replica(key)
        elif kind == "invocation":
            if event == "put":
                self._index_invocation(key)
            else:
                self._unindex_invocation(key)
        elif kind == "transformation":
            name, _, version = key.rpartition("@")
            if event == "put":
                self.tr_versions.setdefault(name, set()).add(version)
            else:
                self.tr_versions.get(name, set()).discard(version)
            self._touch_history(name)

    def _touch_history(self, tr_name: str) -> None:
        self._stamps += 1
        self.history_stamp[tr_name] = self._stamps

    def _touch_history_of(self, derivation: str) -> None:
        """Stamp the transformation ``derivation`` calls, if indexed."""
        shadow = self._derivation_shadow.get(derivation)
        if shadow is not None:
            self._touch_history(shadow[2])

    # -- derivations ------------------------------------------------------

    def _index_derivation(self, key: str) -> None:
        payload = self._catalog._cached_payload("derivation", key)
        if payload is None:  # racing delete; nothing to index
            return
        if key in self._derivation_shadow:
            self._unindex_derivation(key)
        inputs, outputs, tr_name = _derivation_edges(payload)
        for dataset in outputs:
            self.produced_by.setdefault(dataset, set()).add(key)
        for dataset in inputs:
            self.consumed_by.setdefault(dataset, set()).add(key)
        self.by_transformation.setdefault(tr_name, set()).add(key)
        self._derivation_shadow[key] = (inputs, outputs, tr_name)
        self._touch_history(tr_name)

    def _unindex_derivation(self, key: str) -> None:
        shadow = self._derivation_shadow.pop(key, None)
        if shadow is None:
            return
        inputs, outputs, tr_name = shadow
        for dataset in outputs:
            self.produced_by.get(dataset, set()).discard(key)
        for dataset in inputs:
            self.consumed_by.get(dataset, set()).discard(key)
        self.by_transformation.get(tr_name, set()).discard(key)
        self._touch_history(tr_name)

    # -- replicas ---------------------------------------------------------

    def _index_replica(self, key: str) -> None:
        payload = self._catalog._cached_payload("replica", key)
        if payload is None:
            return
        dataset = payload["dataset_name"]
        old = self._replica_shadow.get(key)
        if old is not None and old != dataset:
            self.replicas_of.get(old, set()).discard(key)
        self.replicas_of.setdefault(dataset, set()).add(key)
        self._replica_shadow[key] = dataset

    def _unindex_replica(self, key: str) -> None:
        dataset = self._replica_shadow.pop(key, None)
        if dataset is not None:
            self.replicas_of.get(dataset, set()).discard(key)

    # -- invocations ------------------------------------------------------

    def _index_invocation(self, key: str) -> None:
        payload = self._catalog._cached_payload("invocation", key)
        if payload is None:
            return
        derivation = payload["derivation_name"]
        old = self._invocation_shadow.get(key)
        if old is not None and old != derivation:
            self.invocations_of.get(old, set()).discard(key)
            self._touch_history_of(old)
        self.invocations_of.setdefault(derivation, set()).add(key)
        self._invocation_shadow[key] = derivation
        self._touch_history_of(derivation)

    def _unindex_invocation(self, key: str) -> None:
        derivation = self._invocation_shadow.pop(key, None)
        if derivation is not None:
            self.invocations_of.get(derivation, set()).discard(key)
            self._touch_history_of(derivation)

    # -- cold start -------------------------------------------------------

    def clear(self) -> None:
        self.produced_by.clear()
        self.consumed_by.clear()
        self.replicas_of.clear()
        self.invocations_of.clear()
        self.tr_versions.clear()
        self.by_transformation.clear()
        self.history_stamp.clear()
        self._derivation_shadow.clear()
        self._replica_shadow.clear()
        self._invocation_shadow.clear()

    def rebuild(self) -> None:
        """Reconstruct every index by scanning storage (catalog open).

        Also advances the process-wide replica/invocation ID allocators
        past persisted IDs and registers transformation versions, the
        side effects the old inline rebuild performed.
        """
        catalog = self._catalog
        self.clear()
        for key in catalog._store_keys("derivation"):
            self._index_derivation(key)
        for key in catalog._store_keys("replica"):
            self._index_replica(key)
            observe_replica_id(key)
        for key in catalog._store_keys("invocation"):
            self._index_invocation(key)
            observe_invocation_id(key)
        for key in catalog._store_keys("transformation"):
            name, _, version = key.rpartition("@")
            self.tr_versions.setdefault(name, set()).add(version)
            self._touch_history(name)
            catalog.versions.register(name, version)
