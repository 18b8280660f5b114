"""Catalog fast paths: secondary indexes and a record cache.

Real virtual-data campaigns push tens of thousands of derivations into
a catalog (*Virtual Data in CMS Production*, cs/0306009), and lineage
queries — "which derivations produce/consume this dataset", "which
replicas exist" — are the planner's hottest loop.  This module gives
every backend its indexes, and the document backends a cache:

* :class:`CatalogIndexes` — the derivation graph (producer/consumer
  adjacency) plus replica/invocation/by-transformation indexes,
  maintained through the catalog's mutation-subscriber hook (the same
  change-event stream the federated index of Fig 4 consumes), so
  lineage queries are O(1) dict lookups instead of full-store scans.
  They read what they index off each object at rest
  (:mod:`repro.catalog.payloads`): a record, or a document a document
  backend loaded and nobody decoded yet.  An open rebuilds them in one
  bulk walk of the store that keeps no document;
* :class:`RecordCache` — a bounded LRU, for the SQLite and file-tree
  backends, of the records they wrote and the documents they read,
  invalidated by the same mutation events, so repeated lookups skip
  the backend's disk read / JSON decode entirely.  A memory catalog
  keeps its records in its store and needs none.

Both structures observe events only; the storage primitives remain the
single source of truth and :meth:`CatalogIndexes.rebuild` reconstructs
everything from a cold store (catalog open).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional

from repro.catalog.payloads import derivation_edges, field
from repro.core.invocation import observe_invocation_id
from repro.core.replica import observe_replica_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.base import VirtualDataCatalog
    from repro.provenance.graph import DerivationGraph

#: Default number of objects kept hot.  A whole SDSS stripe (~5000
#: derivations plus their datasets) fits with room to spare.
DEFAULT_CACHE_CAPACITY = 8192


class RecordCache:
    """A bounded LRU of ``(kind, key) -> record or loaded document``.

    A put caches the record it stored; a read that misses caches the
    document it loaded.  Entries are shared and read-only (what the
    catalog hands out is a copy of the record, preserving each
    backend's isolation contract).  ``hits``/``misses`` are plain
    counters read by the benchmarks and mirrored into the metrics
    registry by the catalog.

    Only point reads fill it: the index rebuild at catalog open is a
    bulk walk, like ``_peek_record``, and leaves it empty.

    A loaded document is decoded by whoever needs the record, and
    replaced by the record from the second decode on (:meth:`decoded`):
    a scan that reads every object once (a VDL ``define`` checking
    its datasets) then pins no record, and a document read
    again is decoded one more time and never after.  Whatever drops an
    entry — a put, an ``invalidate``, an eviction, ``clear`` — drops
    its record with it.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()
        #: Slots holding a document that was decoded once.
        self._once: set[tuple[str, str]] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: str, key: str) -> Optional[Any]:
        entry = self._entries.get((kind, key))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((kind, key))
        self.hits += 1
        return entry

    def put(self, kind: str, key: str, entry: Any) -> None:
        entries = self._entries
        entries[(kind, key)] = entry
        entries.move_to_end((kind, key))
        self._once.discard((kind, key))
        while len(entries) > self.capacity:
            evicted, _ = entries.popitem(last=False)
            self._once.discard(evicted)

    def decoded(self, kind: str, key: str, record: Any) -> None:
        """Note that the cached document was decoded to ``record``;
        from the second time on, keep the record in its place."""
        slot = (kind, key)
        if type(self._entries.get(slot)) is not dict:
            return
        if slot in self._once:
            self._once.discard(slot)
            self._entries[slot] = record
        else:
            self._once.add(slot)

    def invalidate(self, kind: str, key: str) -> None:
        self._entries.pop((kind, key), None)
        self._once.discard((kind, key))

    def clear(self) -> None:
        self._entries.clear()
        self._once.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            # Entries holding a record: written, or decoded twice.
            "decoded": sum(
                type(entry) is not dict for entry in self._entries.values()
            ),
            "capacity": self.capacity,
        }


class CatalogIndexes:
    """Secondary indexes kept current by catalog mutation events.

    The catalog owns its indexes and calls :meth:`on_event` right
    after its record cache, so by the time the live analyzer or any
    subscriber (federation, planner, a test) observes a
    ``put``/``delete`` the indexes already reflect it.  They reach the
    catalog through a weak reference: dropping the catalog frees both.
    Deletions are unindexed from per-key *shadow* records captured at
    put time — the store no longer holds the object when a delete
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
        self._catalog = weakref.ref(catalog)
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

    def _empty_graph(self) -> "DerivationGraph":
        # Local import: repro.provenance imports the catalog package.
        from repro.provenance.graph import DerivationGraph

        # A memory catalog's loader is its store: nothing to keep.
        catalog = self._catalog()
        graph = DerivationGraph()
        graph.set_loader(
            catalog._derivation_loader(), keep=not catalog._stores_records
        )
        return graph

    # -- event plumbing ---------------------------------------------------

    def on_event(self, event: str, kind: str, key: str) -> None:
        self.touched = ()
        if kind == "transformation":
            if event == "put":
                self._index_transformation(key)
            else:
                name, _, version = key.rpartition("@")
                versions = self.tr_versions.get(name, set())
                versions.discard(version)
                if not versions:
                    self.tr_versions.pop(name, None)
                self._touch_history(name)
            return
        if kind == "derivation":
            self.graph_patches += 1
        handlers = _HANDLERS.get(kind)
        if handlers is None:
            return
        if event == "put":
            # Just written: a document backend's cache holds the record.
            handlers[0](self, key, self._catalog()._at_rest(kind, key))
        else:
            handlers[1](self, key)

    def _touch_history(self, tr_name: str) -> None:
        self._stamps += 1
        self.history_stamp[tr_name] = self._stamps

    def _touch_history_of(self, derivation: str) -> None:
        """Stamp the transformation ``derivation`` calls, if indexed."""
        tr_name = self._derivation_tr.get(derivation)
        if tr_name is not None:
            self._touch_history(tr_name)

    # -- derivations ------------------------------------------------------

    def _index_derivation(self, key: str, entry: Any) -> None:
        if entry is None:  # racing delete; nothing to index
            return
        self._unindex_derivation(key)
        # Sorted tuples: the graph keeps them, the planner reuses them.
        inputs, outputs, tr_name = derivation_edges(entry)
        self.graph.add_derivation_edges(key, inputs, outputs)
        self.touched += (*inputs, *outputs)
        callers = self.by_transformation.get(tr_name)
        if callers is None:
            callers = self.by_transformation[tr_name] = set()
        callers.add(key)
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

    def _index_replica(self, key: str, entry: Any) -> None:
        if entry is None:
            return
        dataset = field(entry, "dataset_name")
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

    def _index_invocation(self, key: str, entry: Any) -> None:
        if entry is None:
            return
        derivation = field(entry, "derivation_name")
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
        self._catalog().versions.register(name, version)

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

        One bulk walk per kind: each object at rest is indexed as the
        store yields it and then dropped, so an open leaves the record
        cache empty and holds only what the indexes keep.  Indexing a
        replica or invocation also advances the process-wide ID
        allocators past its ID, and indexing a transformation registers
        its version, so a populated store is safe to extend.
        """
        catalog = self._catalog()
        self.clear()
        self.graph_builds += 1
        for kind, (index, _) in _HANDLERS.items():
            for key, entry in catalog._scan(kind):
                index(self, key, entry)
        for key in catalog._store_keys("transformation"):
            self._index_transformation(key)


#: kind -> (index one object at rest, unindex a key): functions, so
#: the indexes hold no bound method of themselves.
_HANDLERS = {
    "derivation": (
        CatalogIndexes._index_derivation,
        CatalogIndexes._unindex_derivation,
    ),
    "replica": (CatalogIndexes._index_replica, CatalogIndexes._unindex_replica),
    "invocation": (
        CatalogIndexes._index_invocation,
        CatalogIndexes._unindex_invocation,
    ),
}
