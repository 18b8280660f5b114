"""Catalog fast paths: secondary indexes and a decoded-payload cache.

Real virtual-data campaigns push tens of thousands of derivations into
a catalog (*Virtual Data in CMS Production*, cs/0306009), and lineage
queries — "which derivations produce/consume this dataset", "which
replicas exist" — are the planner's hottest loop.  This module gives
every backend two fast paths:

* :class:`CatalogIndexes` — the derivation graph (producer/consumer
  adjacency) plus replica/invocation/by-transformation indexes,
  maintained through the catalog's mutation-subscriber hook (the same
  change-event stream the federated index of Fig 4 consumes), so
  lineage queries are O(1) dict lookups instead of full-store scans;
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
    from repro.provenance.graph import DerivationGraph

#: Default number of decoded payloads kept hot.  A whole SDSS stripe
#: (~5000 derivations plus their datasets) fits with room to spare.
DEFAULT_CACHE_CAPACITY = 8192


class PayloadCache:
    """A bounded LRU of decoded ``(kind, key) -> payload`` documents.

    The cached documents are shared and read-only (what the catalog
    hands out is a copy of the object decoded from one, preserving
    each backend's isolation contract).  ``hits``/``misses`` are plain
    counters read by the benchmarks and mirrored into the metrics
    registry by the catalog.

    An entry may also carry the object *decoded* from its payload
    (:meth:`decoded` / :meth:`set_decoded`).  The decoded form lives
    and dies with the payload it came from: a new ``put``, an
    ``invalidate``, an eviction or ``clear`` drops it, so whatever
    already keeps the payload honest keeps the decoded form honest.
    It is kept from the second time a payload is decoded: a scan that
    reads every object once (fsck, a VDL ``define`` checking its
    datasets) then pins nothing, and a payload read again is decoded
    one more time and never after.
    """

    #: Slot value of a payload decoded once, whose object was not kept.
    _DECODED_ONCE = object()

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
        obj = self._decoded.get((kind, key))
        return None if obj is self._DECODED_ONCE else obj

    def set_decoded(self, kind: str, key: str, obj: Any) -> None:
        """Note that the cached payload was decoded to ``obj``; from
        the second time on, keep it while the payload stays put."""
        slot = (kind, key)
        if slot in self._entries:
            self._decoded[slot] = (
                obj if slot in self._decoded else self._DECODED_ONCE
            )

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
            "decoded": sum(
                obj is not self._DECODED_ONCE
                for obj in self._decoded.values()
            ),
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
    event fires, so the index must remember what it indexed.  Later
    subscribers cannot look up what a delete or replace just unlinked
    either, so each event leaves the names it linked or unlinked in
    :attr:`touched` for them (the live analyzer seeds its re-solve
    from it instead of keeping shadows of its own).

    The producer/consumer index *is* the catalog's derivation graph:
    :attr:`graph` is the one adjacency store that ``producers_of``,
    the planner, lineage and the repair paths read
    (``catalog.derivation_graph()``).  It changes only inside
    :meth:`on_event`/:meth:`rebuild`, under the catalog lock; readers
    treat it as read-only, and a walk of several steps that must see
    one consistent graph holds ``catalog._lock`` for its duration.
    """

    def __init__(self, catalog: "VirtualDataCatalog"):
        self._catalog = catalog
        #: dataset <-> derivation edges, by name.
        self.graph = self._empty_graph()
        #: Times the graph was built from storage / derivations
        #: re-linked by events (``catalog.graph_cache().stats()``).
        self.graph_builds = 0
        self.graph_patches = 0
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
        #: Names the event being delivered linked or unlinked, old and
        #: new: datasets for a derivation or replica event, derivations
        #: for an invocation event.  Valid until the next event.
        self.touched: tuple[str, ...] = ()
        # Shadows for event-driven unindexing (the graph is its own).
        self._derivation_tr: dict[str, str] = {}
        self._replica_shadow: dict[str, str] = {}
        self._invocation_shadow: dict[str, str] = {}
        catalog.subscribe(self.on_event)

    def _empty_graph(self) -> "DerivationGraph":
        # Local import: repro.provenance imports the catalog package.
        from repro.provenance.graph import DerivationGraph

        graph = DerivationGraph()
        graph.set_loader(self._catalog._decode_derivation)
        return graph

    # -- event plumbing ---------------------------------------------------

    def on_event(self, event: str, kind: str, key: str) -> None:
        self.touched = ()
        if kind == "derivation":
            self.graph_patches += 1
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
            if event == "put":
                self._index_transformation(key)
            else:
                name, _, version = key.rpartition("@")
                self.tr_versions.get(name, set()).discard(version)
                self._touch_history(name)

    def _touch_history(self, tr_name: str) -> None:
        self._stamps += 1
        self.history_stamp[tr_name] = self._stamps

    def _touch_history_of(self, derivation: str) -> None:
        """Stamp the transformation ``derivation`` calls, if indexed."""
        tr_name = self._derivation_tr.get(derivation)
        if tr_name is not None:
            self._touch_history(tr_name)

    # -- derivations ------------------------------------------------------

    def _index_derivation(self, key: str) -> None:
        payload = self._catalog._cached_payload("derivation", key)
        if payload is None:  # racing delete; nothing to index
            return
        self._unindex_derivation(key)
        inputs, outputs, tr_name = _derivation_edges(payload)
        self.graph.add_derivation_edges(key, inputs, outputs)
        self.touched += (*inputs, *outputs)
        self.by_transformation.setdefault(tr_name, set()).add(key)
        self._derivation_tr[key] = tr_name
        self._touch_history(tr_name)

    def _unindex_derivation(self, key: str) -> None:
        tr_name = self._derivation_tr.pop(key, None)
        if tr_name is None:
            return
        graph = self.graph
        self.touched = graph.input_names(key) + graph.output_names(key)
        graph.remove_derivation(key)
        self.by_transformation.get(tr_name, set()).discard(key)
        self._touch_history(tr_name)

    # -- replicas ---------------------------------------------------------

    def _index_replica(self, key: str) -> None:
        payload = self._catalog._cached_payload("replica", key)
        if payload is None:
            return
        dataset = payload["dataset_name"]
        self.touched = (dataset,)
        old = self._replica_shadow.get(key)
        if old is not None and old != dataset:
            self.replicas_of.get(old, set()).discard(key)
            self.touched = (old, dataset)
        self.replicas_of.setdefault(dataset, set()).add(key)
        self._replica_shadow[key] = dataset
        observe_replica_id(key)

    def _unindex_replica(self, key: str) -> None:
        dataset = self._replica_shadow.pop(key, None)
        if dataset is not None:
            self.replicas_of.get(dataset, set()).discard(key)
            self.touched = (dataset,)

    # -- invocations ------------------------------------------------------

    def _index_invocation(self, key: str) -> None:
        payload = self._catalog._cached_payload("invocation", key)
        if payload is None:
            return
        derivation = payload["derivation_name"]
        self.touched = (derivation,)
        old = self._invocation_shadow.get(key)
        if old is not None and old != derivation:
            self.invocations_of.get(old, set()).discard(key)
            self._touch_history_of(old)
            self.touched = (old, derivation)
        self.invocations_of.setdefault(derivation, set()).add(key)
        self._invocation_shadow[key] = derivation
        self._touch_history_of(derivation)
        observe_invocation_id(key)

    def _unindex_invocation(self, key: str) -> None:
        derivation = self._invocation_shadow.pop(key, None)
        if derivation is not None:
            self.invocations_of.get(derivation, set()).discard(key)
            self._touch_history_of(derivation)
            self.touched = (derivation,)

    # -- transformations --------------------------------------------------

    def _index_transformation(self, key: str) -> None:
        name, _, version = key.rpartition("@")
        self.tr_versions.setdefault(name, set()).add(version)
        self._touch_history(name)
        self._catalog.versions.register(name, version)

    # -- cold start -------------------------------------------------------

    def clear(self) -> None:
        self.graph = self._empty_graph()
        self.replicas_of.clear()
        self.invocations_of.clear()
        self.tr_versions.clear()
        self.by_transformation.clear()
        self.history_stamp.clear()
        self._derivation_tr.clear()
        self._replica_shadow.clear()
        self._invocation_shadow.clear()

    def rebuild(self) -> None:
        """Reconstruct every index by scanning storage (catalog open).

        Indexing a replica or invocation also advances the process-wide
        ID allocators past its ID, and indexing a transformation
        registers its version, so a populated store is safe to extend.
        """
        catalog = self._catalog
        self.clear()
        self.graph_builds += 1
        for key in catalog._store_keys("derivation"):
            self._index_derivation(key)
        for key in catalog._store_keys("replica"):
            self._index_replica(key)
        for key in catalog._store_keys("invocation"):
            self._index_invocation(key)
        for key in catalog._store_keys("transformation"):
            self._index_transformation(key)
