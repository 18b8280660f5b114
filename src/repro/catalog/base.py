"""The Virtual Data Catalog (VDC) service interface (§4).

"We introduce the term virtual data catalog (VDC) to denote a service
that maintains information defined by our virtual data schema."  A
VDC's implementation "may variously be a relational database, OO
database, XML repository, or even a hierarchical directory" (§3); this
module defines the backend-independent interface and behaviour, and the
sibling modules provide three backends:

* :class:`repro.catalog.memory.MemoryCatalog` — dictionaries;
* :class:`repro.catalog.sqlite.SQLiteCatalog` — a relational store
  (the Appendix B shape);
* :class:`repro.catalog.filetree.FileTreeCatalog` — a hierarchical
  directory of JSON documents.

The base class owns all semantics — registration rules, link
maintenance, discovery queries, change notification — and delegates
only dumb ``(kind, key) -> payload dict`` persistence to the backend.
All backends therefore behave identically, which the test suite checks
by running the same scenarios against each.
"""

from __future__ import annotations

import copy
import fnmatch
import functools
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.catalog.index import CatalogIndexes, PayloadCache
from repro.catalog.payloads import json_copy
from repro.core.dataset import Dataset
from repro.durability.crashpoints import crashpoint
from repro.core.derivation import Derivation
from repro.core.invocation import Invocation
from repro.core.replica import Replica
from repro.core.transformation import Transformation
from repro.core.types import DatasetType, TypeRegistry, default_registry
from repro.core.versioning import VersionRegistry
from repro.errors import (
    DuplicateEntryError,
    NotFoundError,
    TypeConformanceError,
)
from repro.observability.instrument import NULL, Instrumentation
from repro.observability.metrics import label_key
from repro.vdl import xml_io

#: Object kinds a catalog stores, in dependency order.
KINDS = ("dataset", "replica", "transformation", "derivation", "invocation")

#: Event names delivered to subscribers.
EVENTS = ("put", "delete")


def _synchronized(method):
    """Serialize a catalog method under the instance's re-entrant lock.

    The parallel local executor records provenance from worker threads;
    every public catalog operation is atomic with respect to the
    storage primitives, the secondary indexes and the payload cache.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


def _transformation_to_payload(tr: Transformation) -> dict:
    return tr.to_dict()


def _transformation_from_payload(payload: dict) -> Transformation:
    import xml.etree.ElementTree as ET

    tr = xml_io.transformation_from_xml(ET.fromstring(payload["xml"]))
    for key, value in payload.get("attributes", {}).items():
        tr.attributes.set(key, value)
    tr.to_dict()  # serialize once; every copy inherits the XML
    return tr


#: How a stored payload of each kind decodes.  Every decoder rebuilds
#: the containers it fills (attribute values, actuals, environment,
#: bindings) and freezes the rest, so the object shares nothing
#: mutable with the document it came from.
_DECODERS: dict[str, Callable[[dict], Any]] = {
    "dataset": Dataset.from_dict,
    "replica": Replica.from_dict,
    "transformation": _transformation_from_payload,
    "derivation": Derivation.from_dict,
    "invocation": Invocation.from_dict,
}


class VirtualDataCatalog:
    """Backend-independent VDC semantics.

    Subclasses implement five storage primitives (``_store_put``,
    ``_store_get``, ``_store_delete``, ``_store_keys``, ``_store_has``).
    Keys are: dataset name, replica id, ``name@version`` for
    transformations, derivation name, invocation id.
    """

    def __init__(
        self,
        authority: Optional[str] = None,
        registry: Optional[TypeRegistry] = None,
        versions: Optional[VersionRegistry] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.authority = authority
        self.types = registry or default_registry()
        self.versions = versions or VersionRegistry()
        self._obs = instrumentation or NULL
        self._obs_cache: dict = {}
        self._lock = threading.RLock()
        self._txn_depth = 0
        self._txn_rollback_on_error = True
        self._txn_undo: list[tuple[str, str, Optional[dict]]] = []
        self._txn_ops = 0
        self._txn_id: Optional[str] = None
        self._journal = None
        self._subscribers: list[Callable[[str, str, str], None]] = []
        # Fast paths, kept current by the mutation-event stream.  The
        # cache invalidator must observe events before the indexes do:
        # index maintenance re-reads payloads through the cache.
        self._cache = PayloadCache()
        # Keys the mutation choke points wrote whose "put" event is
        # still to fire: the just-written payload is already cached, so
        # the invalidator must let it live (index maintenance re-reads
        # payloads through the cache right after the event).  A set:
        # add_derivation declares datasets between its own put and its
        # event, and each of those puts is pending in its turn.
        self._cache_fresh: set[tuple[str, str]] = set()
        self.subscribe(self._invalidate_cached_payload)
        self._indexes = CatalogIndexes(self)
        self._analyzer: Optional[Any] = None
        self._graph_cache: Optional[Any] = None

    # ------------------------------------------------------------------
    # storage primitives (implemented by backends)
    # ------------------------------------------------------------------

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        """Store ``payload`` under the key.

        The document is handed over: the caller neither mutates it
        afterwards nor expects a copy to be taken, and may go on
        sharing it read-only (the payload cache does).
        """
        raise NotImplementedError

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        raise NotImplementedError

    def _store_delete(self, kind: str, key: str) -> None:
        raise NotImplementedError

    def _store_keys(self, kind: str) -> list[str]:
        raise NotImplementedError

    def _store_has(self, kind: str, key: str) -> bool:
        return self._store_get(kind, key) is not None

    def storage_directories(self) -> list[Path]:
        """Directories the backend writes documents into.

        ``repro fsck`` sweeps them for atomic-write temporaries a crash
        left behind.  Empty for backends that keep no such directory.
        """
        return []

    def _store_peek(self, kind: str, key: str) -> Optional[dict]:
        """Raw read without an isolation copy — caller must not mutate.

        The point-lookup companion to :meth:`_store_scan`: backends
        whose storage is already plain dicts override this to skip the
        per-object copy.  The default delegates to :meth:`_store_get`
        (which copies), so it is always safe.
        """
        return self._store_get(kind, key)

    def _store_put_many(
        self, kind: str, items: list[tuple[str, dict]]
    ) -> None:
        """Raw batched write: no events, no index or cache upkeep.

        Only for bulk-load paths that announce the written keys
        afterwards (:meth:`import_snapshot`).  Backends may override
        with a genuinely batched implementation (SQLite uses
        ``executemany``).
        """
        for key, payload in items:
            self._store_put(kind, key, payload)

    def _store_scan(self, kind: str) -> Iterator[tuple[str, dict]]:
        """Yield every ``(key, payload)`` of a kind for bulk readers.

        Like :meth:`_cached_payload`, the yielded documents may be
        backend-owned: callers must treat them as read-only and not
        retain them.  Backends with cheap raw access override this to
        skip the per-object isolation copy — at 10^5 objects that copy
        dominates any whole-catalog scan (index or analysis rebuilds).
        """
        for key in self._store_keys(kind):
            payload = self._store_get(kind, key)
            if payload is not None:
                yield key, payload

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    @property
    def obs(self) -> Instrumentation:
        return self._obs

    @obs.setter
    def obs(self, instrumentation: Instrumentation) -> None:
        self._obs = instrumentation
        self._obs_cache.clear()

    def _obs_t0(self) -> float:
        """Start-of-operation timestamp; 0.0 when not instrumented."""
        return time.perf_counter() if self._obs.enabled else 0.0

    def _obs_op(self, op: str, kind: str, t0: float) -> None:
        """Account one catalog operation's count and latency.

        Catalog lookups are the hottest instrumented path in the
        stack (planning walks the whole derivation graph), so the
        metric objects and label keys are resolved once per (op,
        kind) and cached rather than paying label normalization and
        registry lookups on every call.
        """
        if not self._obs.enabled:
            return
        cached = self._obs_cache.get((op, kind))
        if cached is None:
            metrics = self._obs.metrics
            cached = self._obs_cache[(op, kind)] = (
                metrics.counter(
                    "catalog.ops", help="catalog operations by op/kind/backend"
                ),
                label_key(
                    {"op": op, "kind": kind, "backend": type(self).__name__}
                ),
                metrics.histogram(
                    "catalog.op.seconds", help="catalog operation latency"
                ),
                label_key({"op": op}),
            )
        ops, ops_key, seconds, seconds_key = cached
        ops.inc_at(ops_key)
        seconds.observe_at(seconds_key, time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # change notification (used by federated indexes, Fig 4)
    # ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[str, str, str], None]) -> None:
        """Register ``callback(event, kind, key)`` for every mutation."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[str, str, str], None]) -> None:
        self._subscribers.remove(callback)

    def _notify(self, event: str, kind: str, key: str) -> None:
        for callback in self._subscribers:
            callback(event, kind, key)

    # ------------------------------------------------------------------
    # payload cache and index maintenance
    # ------------------------------------------------------------------

    def _invalidate_cached_payload(self, event: str, kind: str, key: str) -> None:
        if (kind, key) in self._cache_fresh:
            self._cache_fresh.discard((kind, key))
            if event == "put":
                # Write-through from _apply_put/restore_payload: the
                # cache already holds the new payload; keep it.
                return
        self._cache.invalidate(kind, key)

    def _cached_payload(self, kind: str, key: str) -> Optional[dict]:
        """The stored payload, through the payload LRU.

        The document is shared and may be backend-owned (a miss peeks:
        stored documents are replaced, never edited in place) — read
        only.  What leaves the catalog is an object decoded from it
        (:meth:`_decoded`) or a ``json_copy``.
        """
        payload = self._cache.get(kind, key)
        if payload is not None:
            self._obs_cache_op(hit=True)
            return payload
        self._obs_cache_op(hit=False)
        payload = self._store_peek(kind, key)
        if payload is not None:
            self._cache.put(kind, key, payload)
        return payload

    @_synchronized
    def _decoded(self, kind: str, key: str) -> Any:
        """The object decoded from the stored payload — shared, read-only.

        Kept in the payload cache's entry (from the second decode of a
        cached payload on, see :class:`PayloadCache`), so the put /
        invalidate / evict / clear that keeps the payload honest drops
        the decoded form with it.  The public accessors hand out its
        ``copy()``; readers that only inspect use it as is, and must
        neither mutate it nor keep it across a mutation.

        A derivation's decoded form is the one the derivation graph
        keeps (``derivation_graph().derivation(name)``), filled by
        :meth:`_decode_derivation` and dropped whenever the derivation
        is written, re-linked or unlinked: one object per stored
        derivation, whoever asks.
        """
        payload = self._cached_payload(kind, key)
        if payload is None:
            raise NotFoundError(f"{kind} {key!r} not found")
        if kind == "derivation":
            try:
                return self._indexes.graph.derivation(key)
            except KeyError:
                # Stored but not linked yet (its put event is still to
                # fire): decode for this caller only.
                return Derivation.from_dict(payload)
        obj = self._cache.decoded(kind, key)
        if obj is None:
            obj = _DECODERS[kind](payload)
            self._cache.set_decoded(kind, key, obj)
        return obj

    @_synchronized
    def _decode_derivation(self, name: str) -> Derivation:
        """Fill for the derivation graph's decoded forms (its loader).

        A raw peek: unlike :meth:`_cached_payload` a miss does not
        populate the LRU, so planner walks over 10^5+ derivations do
        not evict the working set.  The graph keeps what this returns.
        """
        payload = self._peek_payload("derivation", name)
        if payload is None:
            raise NotFoundError(f"derivation {name!r} not found")
        return Derivation.from_dict(payload)

    def _peek_payload(self, kind: str, key: str) -> Optional[dict]:
        """Read-only payload view: cache if present, else a raw peek.

        Unlike :meth:`_cached_payload` a miss does *not* populate the
        LRU — bulk planner walks over 10^5+ objects would otherwise
        evict the whole working set.  Callers must treat the document
        as read-only and must not retain it across mutations.
        """
        payload = self._cache.get(kind, key)
        if payload is not None:
            return payload
        return self._store_peek(kind, key)

    def _obs_cache_op(self, hit: bool) -> None:
        if not self._obs.enabled:
            return
        cached = self._obs_cache.get("payload-cache")
        if cached is None:
            metrics = self._obs.metrics
            cached = self._obs_cache["payload-cache"] = (
                metrics.counter(
                    "catalog.index.hits",
                    help="catalog lookups served from the payload cache",
                ),
                metrics.counter(
                    "catalog.index.misses",
                    help="catalog lookups that fell through to storage",
                ),
            )
        (cached[0] if hit else cached[1]).inc_at(())

    def cache_stats(self) -> dict[str, int]:
        """Payload-cache hit/miss/size counters (for stats and tests)."""
        return self._cache.stats()

    @_synchronized
    def _rebuild_indexes(self) -> None:
        """Rebuild fast paths by scanning storage (on open only: every
        later change, bulk imports included, arrives as events)."""
        self._cache.clear()
        self._indexes.rebuild()

    @_synchronized
    def live_analyzer(self, file: str = "<catalog>") -> Any:
        """The incrementally-maintained analyzer over this catalog.

        Created lazily on first use; thereafter it tracks every
        mutation through the event stream, so repeated analysis and
        lint queries pay only for what changed.
        """
        if self._analyzer is None:
            # Local import: repro.analysis imports catalog payload
            # helpers, so a module-level import would be circular.
            from repro.analysis.incremental import IncrementalAnalyzer

            self._analyzer = IncrementalAnalyzer(
                self, file=file, obs=self._obs
            )
        return self._analyzer

    @_synchronized
    def graph_cache(self) -> Any:
        """Read view of the live derivation graph and its counters."""
        if self._graph_cache is None:
            # Local import: repro.provenance imports catalog helpers,
            # so a module-level import would be circular.
            from repro.provenance.graphcache import GraphCache

            self._graph_cache = GraphCache(self)
        return self._graph_cache

    def derivation_graph(self) -> Any:
        """The derivation graph: the index ``producers_of`` reads.

        One shared object, kept current by every mutation event.  Treat
        it as read-only; a walk of several steps that must see one
        consistent graph while other threads write holds
        ``catalog._lock`` for its duration (as ``Planner._plan`` does).
        """
        return self.graph_cache().graph()

    # ------------------------------------------------------------------
    # transactions (crash-atomic multi-object commits)
    # ------------------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Attach an :class:`~repro.durability.journal.IntentJournal`.

        With a journal attached, every mutation inside a
        :meth:`transaction` is journaled (with its undo payload)
        *before* it is applied, and the commit marker seals the batch —
        so a crash at any instant leaves the journal able to finish the
        story: roll the partial batch back, or prove it completed.
        Backends with native transactions (SQLite) don't need one, but
        the combination is still coherent: the journal then also serves
        as a replayable redo log.
        """
        self._journal = journal

    @property
    def journal(self):
        return self._journal

    @contextmanager
    def transaction(self, label: str = "", rollback_on_error: bool = True):
        """Group mutations into one all-or-nothing (vs. crashes) unit.

        Every mutation inside the context behaves normally — events
        fire, indexes and the cache stay current, reads observe writes —
        but durability is deferred to the outermost exit:

        * backends with native transactions (SQLite) hold their commit
          until exit and roll back on error;
        * with a journal attached, each mutation's intent (redo and
          undo payloads) is flushed to the journal before it touches
          the store, and a fsynced commit marker seals the batch — a
          kill at *any* instant is recoverable by ``repro fsck``;
        * on an exception with ``rollback_on_error`` (the default), the
          applied prefix is undone in reverse before the exception
          propagates, so callers never observe half a commit.

        ``rollback_on_error=False`` keeps the historical :meth:`bulk`
        contract: crash-atomic, but mutations applied before an
        in-process exception remain applied.  Nesting is allowed; inner
        transactions simply extend the outermost one.
        """
        with self._lock:
            self._txn_depth += 1
            if self._txn_depth > 1:
                try:
                    yield self
                finally:
                    self._txn_depth -= 1
                return
            self._txn_undo = []
            self._txn_ops = 0
            self._txn_rollback_on_error = rollback_on_error
            self._txn_id = (
                self._journal.begin(label) if self._journal is not None else None
            )
            self._txn_begin()
            try:
                yield self
            except BaseException:
                if rollback_on_error:
                    self._txn_rollback_applied()
                else:
                    # Seal what did apply (bulk semantics): the batch
                    # stays exception-non-atomic but crash-atomic.
                    self._txn_seal()
                raise
            else:
                self._txn_seal()
            finally:
                self._txn_depth -= 1
                self._txn_undo = []
                self._txn_id = None

    @contextmanager
    def bulk(self):
        """Batch mutations, deferring backend durability work.

        Inside the context every mutation behaves normally (events
        fire, indexes and cache stay current, reads observe writes);
        backends may defer expensive durability steps — SQLite holds
        its ``commit()`` until exit instead of fsyncing per mutation.
        The batch is *not* atomic with respect to exceptions: mutations
        applied before an exception remain applied, exactly as without
        ``bulk()``.  It *is* atomic with respect to crashes — bulk runs
        on the same journaled commit path as :meth:`transaction`.
        Nesting is allowed; only the outermost exit flushes.
        """
        with self.transaction(label="bulk", rollback_on_error=False):
            yield self

    def _txn_seal(self) -> None:
        """Make the applied batch durable: backend commit, then marker."""
        self._txn_commit()
        if self._txn_id is not None:
            crashpoint("catalog.commit.pre-marker")
            self._journal.commit(self._txn_id, self._txn_ops)

    def _txn_rollback_applied(self) -> None:
        """Undo the applied prefix of the open transaction (lock held)."""
        if self._journal is None and self._txn_abort():
            # The backend discarded the uncommitted writes wholesale,
            # but every subscriber saw them applied.  Replay the
            # compensating event for each touched key (its state before
            # the transaction decides put or delete; subscribers re-read
            # storage), so whoever listens — cache, indexes, analyzer,
            # federation, planners — sees the abort.
            before: dict[tuple[str, str], Optional[dict]] = {}
            for kind, key, prev in self._txn_undo:
                before.setdefault((kind, key), prev)
            self._cache_fresh.clear()
            for (kind, key), prev in reversed(before.items()):
                self._notify("put" if prev is not None else "delete", kind, key)
            return
        undo = list(self._txn_undo)
        for kind, key, prev in reversed(undo):
            if self._txn_id is not None:
                # Journal the compensation as part of the same
                # transaction: a redo replay then nets to the pre-
                # transaction state, and a crash mid-rollback is
                # finished by fsck like any other uncommitted batch.
                self._journal.record(
                    self._txn_id,
                    "put" if prev is not None else "delete",
                    kind,
                    key,
                    payload=prev,
                )
                self._txn_ops += 1
            self.restore_payload(kind, key, prev)
        self._txn_seal()

    def _txn_begin(self) -> None:
        """Backend hook: enter deferred-durability mode (default no-op)."""

    def _txn_commit(self) -> None:
        """Backend hook: flush deferred durability work (default no-op)."""

    def _txn_abort(self) -> bool:
        """Backend hook: natively discard uncommitted writes.

        Returns True when the backend rolled back wholesale (SQLite);
        False (the default) to request semantic per-op undo instead.
        """
        return False

    def _apply_put(self, kind: str, key: str, payload: dict) -> None:
        """Journal-then-apply a put (the mutation choke point)."""
        if self._txn_depth:
            prev = self._snapshot_payload(kind, key)
            self._txn_undo.append((kind, key, prev))
            if self._txn_id is not None:
                self._journal.record(
                    self._txn_id, "put", kind, key, payload=payload, prev=prev
                )
                self._txn_ops += 1
                crashpoint("catalog.commit.op")
        # One document per put: every caller passes a freshly
        # serialized ``to_dict()`` it keeps no reference into, and a
        # stored document is replaced, never edited — so the store, the
        # cache (write-through: index maintenance and the common
        # read-after-write skip the backend read) and, when this key is
        # next overwritten, the undo log can all hold this one.
        self._store_put(kind, key, payload)
        self._cache.put(kind, key, payload)
        self._cache_fresh.add((kind, key))
        if kind == "derivation":
            # The graph re-links on the put event, which add_derivation
            # fires only after declaring datasets; whoever reads in
            # between gets the form decoded from the new payload.
            self._indexes.graph.forget(key)

    def _apply_delete(self, kind: str, key: str) -> None:
        """Journal-then-apply a delete (the mutation choke point)."""
        if self._txn_depth:
            prev = self._snapshot_payload(kind, key)
            self._txn_undo.append((kind, key, prev))
            if self._txn_id is not None:
                self._journal.record(
                    self._txn_id, "delete", kind, key, prev=prev
                )
                self._txn_ops += 1
                crashpoint("catalog.commit.op")
        self._store_delete(kind, key)

    def _snapshot_payload(self, kind: str, key: str) -> Optional[dict]:
        """The stored payload, for undo logs.

        The document itself: whatever overwrites the key installs a
        new one and leaves this one as it was.
        """
        return self._cached_payload(kind, key)

    @_synchronized
    def restore_payload(
        self, kind: str, key: str, payload: Optional[dict]
    ) -> None:
        """Force a raw payload (recovery primitive; bypasses validation).

        ``payload=None`` deletes the key.  Fires the normal mutation
        events so the cache, indexes, and any live analyzer stay
        coherent.  Used by journal rollback/replay and ``repro fsck``
        repairs; not part of the application-facing API.
        """
        if payload is None:
            if self._store_has(kind, key):
                self._store_delete(kind, key)
                self._notify("delete", kind, key)
        else:
            # The caller keeps its document (a journal record, an undo
            # entry, a repair plan); store and cache share one copy.
            # Same write-through contract as _apply_put: whenever the
            # fresh marker is set, cache and store hold the same
            # document, so the skipped invalidation is always safe.
            owned = json_copy(payload)
            self._store_put(kind, key, owned)
            self._cache.put(kind, key, owned)
            self._cache_fresh.add((kind, key))
            self._notify("put", kind, key)

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------

    @_synchronized
    def add_dataset(self, dataset: Dataset, replace: bool = False) -> None:
        """Register a dataset definition.

        ``replace=True`` permits updating an existing record (e.g. when
        a virtual dataset becomes materialized).
        """
        t0 = self._obs_t0()
        if not replace and self._store_has("dataset", dataset.name):
            raise DuplicateEntryError(f"dataset {dataset.name!r} already defined")
        self._apply_put("dataset", dataset.name, dataset.to_dict())
        self._notify("put", "dataset", dataset.name)
        self._obs_op("insert", "dataset", t0)

    @_synchronized
    def get_dataset(self, name: str) -> Dataset:
        t0 = self._obs_t0()
        ds = self._decoded("dataset", name).copy()
        self._obs_op("lookup", "dataset", t0)
        return ds

    @_synchronized
    def has_dataset(self, name: str) -> bool:
        return self._store_has("dataset", name)

    @_synchronized
    def remove_dataset(self, name: str) -> None:
        if not self._store_has("dataset", name):
            raise NotFoundError(f"dataset {name!r} not found")
        self._apply_delete("dataset", name)
        self._notify("delete", "dataset", name)

    @_synchronized
    def dataset_names(self) -> list[str]:
        return sorted(self._store_keys("dataset"))

    def datasets(self) -> Iterator[Dataset]:
        for name in self.dataset_names():
            yield self.get_dataset(name)

    # ------------------------------------------------------------------
    # replicas
    # ------------------------------------------------------------------

    @_synchronized
    def add_replica(self, replica: Replica) -> None:
        """Register a physical copy of a dataset."""
        t0 = self._obs_t0()
        if self._store_has("replica", replica.replica_id):
            raise DuplicateEntryError(
                f"replica {replica.replica_id!r} already registered"
            )
        self._apply_put("replica", replica.replica_id, replica.to_dict())
        self._notify("put", "replica", replica.replica_id)
        self._obs_op("insert", "replica", t0)

    @_synchronized
    def get_replica(self, replica_id: str) -> Replica:
        return self._decoded("replica", replica_id).copy()

    @_synchronized
    def remove_replica(self, replica_id: str) -> None:
        if not self._store_has("replica", replica_id):
            raise NotFoundError(f"replica {replica_id!r} not found")
        self._apply_delete("replica", replica_id)
        self._notify("delete", "replica", replica_id)

    def replicas_of(self, dataset_name: str) -> list[Replica]:
        """All registered physical copies of ``dataset_name``."""
        return [r.copy() for r in self._decoded_replicas_of(dataset_name)]

    @_synchronized
    def _decoded_replicas_of(self, dataset_name: str) -> list[Replica]:
        """:meth:`replicas_of` in shared decoded form — read-only."""
        ids = sorted(self._indexes.replicas_of.get(dataset_name, ()))
        return [self._decoded("replica", rid) for rid in ids]

    @_synchronized
    def replica_ids(self) -> list[str]:
        return sorted(self._store_keys("replica"))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    @_synchronized
    def add_transformation(
        self, tr: Transformation, replace: bool = False
    ) -> None:
        t0 = self._obs_t0()
        key = f"{tr.name}@{tr.version}"
        if not replace and self._store_has("transformation", key):
            raise DuplicateEntryError(
                f"transformation {tr.name!r} version {tr.version} already defined"
            )
        self._apply_put("transformation", key, _transformation_to_payload(tr))
        self._notify("put", "transformation", key)
        self._obs_op("insert", "transformation", t0)

    def get_transformation(
        self, name: str, version: Optional[str] = None
    ) -> Transformation:
        """Fetch by name; latest version when ``version`` is omitted.

        The caller owns the returned object: it is a copy of the form
        decoded once per stored payload, serialized XML included, so
        neither the lookup nor a later :meth:`Transformation.to_dict`
        (recipe stamping) pays for XML again.
        """
        return self._decoded_transformation(name, version).copy()

    @_synchronized
    def _decoded_transformation(
        self, name: str, version: Optional[str] = None
    ) -> Transformation:
        """The shared decoded form — callers must not mutate it."""
        t0 = self._obs_t0()
        if version is None:
            known = self._indexes.tr_versions.get(name)
            if not known:
                raise NotFoundError(f"transformation {name!r} not found")
            latest = self.versions.latest(name)
            version = str(latest) if latest is not None else sorted(known)[-1]
            if version not in known:
                # versions registry may normalize (1.0 == 1); fall back.
                version = sorted(known)[-1]
        try:
            tr = self._decoded("transformation", f"{name}@{version}")
        except NotFoundError:
            raise NotFoundError(
                f"transformation {name!r} version {version} not found"
            ) from None
        self._obs_op("lookup", "transformation", t0)
        return tr

    @_synchronized
    def has_transformation(self, name: str, version: Optional[str] = None) -> bool:
        if version is None:
            return bool(self._indexes.tr_versions.get(name))
        return self._store_has("transformation", f"{name}@{version}")

    @_synchronized
    def remove_transformation(self, name: str, version: str) -> None:
        key = f"{name}@{version}"
        if not self._store_has("transformation", key):
            raise NotFoundError(f"transformation {key!r} not found")
        self._apply_delete("transformation", key)
        self._notify("delete", "transformation", key)

    @_synchronized
    def transformation_names(self) -> list[str]:
        return sorted(self._indexes.tr_versions)

    def transformations(self) -> Iterator[Transformation]:
        for key in sorted(self._store_keys("transformation")):
            name, _, version = key.rpartition("@")
            yield self.get_transformation(name, version)

    # ------------------------------------------------------------------
    # derivations
    # ------------------------------------------------------------------

    @_synchronized
    def add_derivation(
        self,
        dv: Derivation,
        replace: bool = False,
        validate: bool = True,
        auto_declare: bool = True,
    ) -> None:
        """Register a derivation.

        * validates actuals against the (locally resolvable)
          transformation when ``validate`` is true;
        * auto-declares virtual dataset records for any LFN the
          derivation mentions that is not yet known, and stamps the
          produced datasets' ``producer`` back-link.
        """
        t0 = self._obs_t0()
        if not replace and self._store_has("derivation", dv.name):
            raise DuplicateEntryError(f"derivation {dv.name!r} already defined")
        if validate:
            self.check_derivation(dv)
        self._apply_put("derivation", dv.name, dv.to_dict())
        if auto_declare:
            self._declare_mentioned_datasets(dv)
        self._notify("put", "derivation", dv.name)
        self._obs_op("insert", "derivation", t0)

    def _declare_mentioned_datasets(self, dv: Derivation) -> None:
        formal_types = self._formal_types_for(dv)
        for formal_name, arg in dv.dataset_args():
            if not self._store_has("dataset", arg.dataset):
                dtype = formal_types.get(formal_name)
                ds = Dataset(name=arg.dataset, dataset_type=dtype or DatasetType())
                if arg.is_output:
                    ds.producer = dv.name
                self.add_dataset(ds)
            elif (
                arg.is_output
                and self._decoded("dataset", arg.dataset).producer != dv.name
            ):
                ds = self.get_dataset(arg.dataset)
                ds.producer = dv.name
                self.add_dataset(ds, replace=True)

    def _formal_types_for(self, dv: Derivation) -> dict[str, DatasetType]:
        """Best-effort formal types for a derivation's dataset args."""
        if not dv.transformation.is_local or not self.has_transformation(
            dv.transformation.name
        ):
            return {}
        tr = self._decoded_transformation(dv.transformation.name)
        out = {}
        for formal in tr.signature.formals:
            if not formal.is_string and len(formal.dataset_types.members) == 1:
                member = formal.dataset_types.members[0]
                if not member.is_any():
                    out[formal.name] = member
        return out

    @_synchronized
    def get_derivation(self, name: str) -> Derivation:
        t0 = self._obs_t0()
        dv = self._decoded("derivation", name).copy()
        self._obs_op("lookup", "derivation", t0)
        return dv

    @_synchronized
    def has_derivation(self, name: str) -> bool:
        return self._store_has("derivation", name)

    @_synchronized
    def remove_derivation(self, name: str) -> None:
        if not self._store_has("derivation", name):
            raise NotFoundError(f"derivation {name!r} not found")
        self._apply_delete("derivation", name)
        self._notify("delete", "derivation", name)

    @_synchronized
    def derivation_names(self) -> list[str]:
        return sorted(self._store_keys("derivation"))

    def derivations(self) -> Iterator[Derivation]:
        for name in self.derivation_names():
            yield self.get_derivation(name)

    def check_derivation(self, dv: Derivation) -> None:
        """Validate a derivation against its transformation and datasets.

        Remote transformation references are skipped (the resolver
        validates them); local ones are checked for arity/direction and
        dataset-type conformance against registered dataset records.
        """
        ref = dv.transformation
        if not ref.is_local:
            return
        if not self.has_transformation(ref.name):
            return  # foreign/unregistered; tolerated like remote refs
        tr = self._decoded_transformation(ref.name)
        dv.check_against(tr)
        for formal_name, arg in dv.dataset_args():
            formal = tr.signature.formal(formal_name)
            if formal.is_string:
                continue
            if not self._store_has("dataset", arg.dataset):
                continue
            ds = self._decoded("dataset", arg.dataset)
            if not formal.dataset_types.accepts(ds.dataset_type, self.types):
                raise TypeConformanceError(
                    f"derivation {dv.name!r}: dataset {arg.dataset!r} of type "
                    f"{ds.dataset_type} does not conform to formal "
                    f"{formal_name!r} ({formal.dataset_types})"
                )

    # ------------------------------------------------------------------
    # invocations
    # ------------------------------------------------------------------

    @_synchronized
    def add_invocation(self, inv: Invocation) -> None:
        t0 = self._obs_t0()
        if self._store_has("invocation", inv.invocation_id):
            raise DuplicateEntryError(
                f"invocation {inv.invocation_id!r} already recorded"
            )
        self._apply_put("invocation", inv.invocation_id, inv.to_dict())
        self._notify("put", "invocation", inv.invocation_id)
        self._obs_op("insert", "invocation", t0)

    @_synchronized
    def get_invocation(self, invocation_id: str) -> Invocation:
        return self._decoded("invocation", invocation_id).copy()

    @_synchronized
    def invocations_of(self, derivation_name: str) -> list[Invocation]:
        """All recorded executions of a derivation, by id order."""
        ids = sorted(self._indexes.invocations_of.get(derivation_name, ()))
        return [self.get_invocation(iid) for iid in ids]

    @_synchronized
    def invocations_of_transformation(self, name: str) -> list[Invocation]:
        """Recorded executions of every derivation calling ``name``.

        Ordered by derivation name, then invocation id.  Answered from
        the indexes alone: no derivation is decoded.
        """
        return [
            invocation
            for dv_name in sorted(self._indexes.by_transformation.get(name, ()))
            for invocation in self.invocations_of(dv_name)
        ]

    @_synchronized
    def history_stamp(self, transformation: str) -> int:
        """Changes whenever what is recorded about ``transformation``
        does: its definition, the derivations calling it, or their
        invocations (rollbacks included).  Equal stamps mean nothing
        changed in between; 0 means nothing is recorded at all."""
        return self._indexes.history_stamp.get(transformation, 0)

    @_synchronized
    def called_transformations(self) -> list[str]:
        """Names of transformations at least one derivation calls."""
        return sorted(
            name
            for name, callers in self._indexes.by_transformation.items()
            if callers
        )

    @_synchronized
    def invocation_ids(self) -> list[str]:
        return sorted(self._store_keys("invocation"))

    # ------------------------------------------------------------------
    # provenance relationship queries (used by repro.provenance)
    # ------------------------------------------------------------------

    @_synchronized
    def producers_of(self, dataset_name: str) -> list[Derivation]:
        """Derivations that output ``dataset_name``."""
        names = sorted(self._indexes.graph.producer_names(dataset_name))
        return [self.get_derivation(n) for n in names]

    @_synchronized
    def consumers_of(self, dataset_name: str) -> list[Derivation]:
        """Derivations that read ``dataset_name``."""
        names = sorted(self._indexes.graph.consumer_names(dataset_name))
        return [self.get_derivation(n) for n in names]

    @_synchronized
    def derivations_of_transformation(self, name: str) -> list[Derivation]:
        """Derivations calling transformation ``name`` (any version)."""
        names = sorted(self._indexes.by_transformation.get(name, ()))
        return [self.get_derivation(n) for n in names]

    # ------------------------------------------------------------------
    # discovery (§2 Discovery, §5.5)
    # ------------------------------------------------------------------

    @_synchronized
    def find_datasets(
        self,
        name_glob: Optional[str] = None,
        conforms_to: Optional[DatasetType] = None,
        attributes: Optional[dict[str, Any]] = None,
        virtual: Optional[bool] = None,
    ) -> list[Dataset]:
        """Metadata search over datasets.

        ``conforms_to`` matches datasets whose type is a subtype of the
        given type; ``virtual`` filters on materialization state.
        """
        t0 = self._obs_t0()
        out = []
        for name in self.dataset_names():
            if name_glob and not fnmatch.fnmatchcase(name, name_glob):
                continue
            ds = self._decoded("dataset", name)
            if conforms_to is not None and not self.types.conforms(
                ds.dataset_type, conforms_to
            ):
                continue
            if attributes and not ds.attributes.matches(attributes):
                continue
            if virtual is not None and ds.is_virtual != virtual:
                continue
            out.append(ds.copy())
        self._obs_op("query", "dataset", t0)
        return out

    @_synchronized
    def find_transformations(
        self,
        name_glob: Optional[str] = None,
        produces: Optional[DatasetType] = None,
        consumes: Optional[DatasetType] = None,
        attributes: Optional[dict[str, Any]] = None,
    ) -> list[Transformation]:
        """Search transformations by name and type signature.

        ``produces``/``consumes`` match transformations with an output
        (resp. input) formal that *accepts* a dataset of the given type
        — the "if a program that performs this analysis exists, I won't
        have to write one from scratch" query of §2.
        """
        t0 = self._obs_t0()
        out = []
        for key in sorted(self._store_keys("transformation")):
            name, _, version = key.rpartition("@")
            if name_glob and not fnmatch.fnmatchcase(name, name_glob):
                continue
            tr = self._decoded_transformation(name, version)
            if attributes and not tr.attributes.matches(attributes):
                continue
            if produces is not None and not any(
                f.dataset_types.accepts(produces, self.types)
                for f in tr.signature.outputs()
            ):
                continue
            if consumes is not None and not any(
                f.dataset_types.accepts(consumes, self.types)
                for f in tr.signature.inputs()
            ):
                continue
            out.append(tr.copy())
        self._obs_op("query", "transformation", t0)
        return out

    @_synchronized
    def find_derivations(
        self,
        transformation: Optional[str] = None,
        produces: Optional[str] = None,
        consumes: Optional[str] = None,
        name_glob: Optional[str] = None,
    ) -> list[Derivation]:
        """Search derivations by callee and by dataset names touched."""
        t0 = self._obs_t0()
        if produces is not None:
            names = sorted(self._indexes.graph.producer_names(produces))
        elif consumes is not None:
            names = sorted(self._indexes.graph.consumer_names(consumes))
        elif transformation is not None:
            names = sorted(
                self._indexes.by_transformation.get(transformation, ())
            )
        else:
            names = self.derivation_names()
        out = []
        for name in names:
            if name_glob and not fnmatch.fnmatchcase(name, name_glob):
                continue
            dv = self._decoded("derivation", name)
            if transformation and dv.transformation.name != transformation:
                continue
            if produces and not dv.produces(produces):
                continue
            if consumes and not dv.consumes(consumes):
                continue
            out.append(dv.copy())
        self._obs_op("query", "derivation", t0)
        return out

    # ------------------------------------------------------------------
    # VDL convenience
    # ------------------------------------------------------------------

    def define(self, vdl_source: str, replace: bool = False) -> "VirtualDataCatalog":
        """Compile VDL text and register everything it declares.

        Returns ``self`` so definitions can be chained fluently.
        """
        from repro.vdl.semantics import compile_vdl

        program = compile_vdl(vdl_source, self.types)
        with self.bulk():
            for tr in program.transformations:
                self.add_transformation(tr, replace=replace)
            for dv in program.derivations:
                self.add_derivation(dv, replace=replace)
        return self

    def export_vdl(self) -> str:
        """Render the catalog's TRs and DVs back to VDL text."""
        from repro.vdl.unparser import unparse

        return unparse(list(self.transformations()), list(self.derivations()))

    # ------------------------------------------------------------------
    # bulk export / import (used by federation snapshots and tests)
    # ------------------------------------------------------------------

    @_synchronized
    def export_snapshot(self) -> dict[str, dict[str, dict]]:
        """Dump all storage payloads, keyed by kind then key."""
        return {
            kind: {
                key: self._store_get(kind, key)
                for key in self._store_keys(kind)
            }
            for kind in KINDS
        }

    @_synchronized
    def import_snapshot(self, snapshot: dict[str, dict[str, dict]]) -> None:
        """Load payloads produced by :meth:`export_snapshot`.

        Written in per-kind batches, then announced as one ordinary
        ``put`` event per key, so every subscriber — indexes, analyzer,
        federation, planners — follows the import like any other write.
        """
        with self.bulk():
            for kind in KINDS:
                self._store_put_many(kind, list(snapshot.get(kind, {}).items()))
            self._cache_fresh.clear()
            for kind in KINDS:
                for key in snapshot.get(kind, {}):
                    self._notify("put", kind, key)

    @_synchronized
    def counts(self) -> dict[str, int]:
        """Number of stored objects per kind."""
        return {kind: len(self._store_keys(kind)) for kind in KINDS}

    def __repr__(self) -> str:
        where = self.authority or "local"
        return f"<{type(self).__name__} {where} {self.counts()}>"
