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
  directory with one append-only segment of one-line JSON records per
  object kind.

The base class owns all semantics — registration rules, link
maintenance, discovery queries, change notification — and delegates
only storage to the backend.  What a put stores is a *record*: a
private, read-only copy of the object ``add_*`` was handed
(:func:`repro.catalog.payloads.owned`).  The memory backend keeps the
record itself; the SQLite and file-tree backends persist its document
(``(kind, key) -> payload dict``) and keep the record in their cache.
Documents are built only where bytes leave the process: those two
backends' writes, the intent journal (with the undo entries it
carries), ``export_snapshot`` and ``_store_get``.  All backends
therefore behave identically, which the test suite checks by running
the same scenarios against each.
"""

from __future__ import annotations

import fnmatch
import functools
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from types import MethodType
from typing import Any, Callable, Iterator, Optional

from repro.catalog.index import CatalogIndexes, RecordCache
from repro.catalog.payloads import (
    dataset_size,
    document,
    file_size,
    is_concrete,
    owned,
    sharing_empties,
)
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
    storage primitives, the secondary indexes and the record cache.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


def _formal_types(tr: Transformation) -> dict[str, DatasetType]:
    """Best-effort formal types for a derivation's dataset args: each
    dataset formal whose type is one concrete member."""
    out = {}
    for formal in tr.signature.formals:
        if not formal.is_string and len(formal.dataset_types.members) == 1:
            member = formal.dataset_types.members[0]
            if not member.is_any():
                out[formal.name] = member
    return out


def _transformation_from_payload(payload: dict) -> Transformation:
    import xml.etree.ElementTree as ET

    tr = xml_io.transformation_from_xml(ET.fromstring(payload["xml"]))
    for key, value in payload.get("attributes", {}).items():
        tr.attributes.set(key, value)
    tr.to_dict()  # serialize once; every copy inherits the XML
    return tr


#: How a stored payload of each kind decodes into a record.  Every
#: decoder rebuilds the containers it fills (attribute values, actuals,
#: environment, bindings) and freezes the rest, so the object shares
#: nothing mutable with the document it came from; empty ones are the
#: read-only empties every record shares (:func:`sharing_empties`).
_DECODERS: dict[str, Callable[[dict], Any]] = {
    "dataset": sharing_empties(Dataset.from_dict),
    "replica": sharing_empties(Replica.from_dict),
    "transformation": sharing_empties(_transformation_from_payload),
    "derivation": sharing_empties(Derivation.from_dict),
    "invocation": sharing_empties(Invocation.from_dict),
}


class VirtualDataCatalog:
    """Backend-independent VDC semantics.

    Document backends implement the storage primitives (``_store_put``,
    ``_store_put_many``, ``_store_get``, ``_store_delete``,
    ``_store_keys``, ``_store_has``, ``_store_scan``); a backend that
    keeps records instead overrides the record hooks too (see
    :class:`repro.catalog.memory.MemoryCatalog`).
    Keys are: dataset name, replica id, ``name@version`` for
    transformations, derivation name, invocation id.
    """

    #: True when the store holds the records themselves (nothing to
    #: decode, nothing worth caching).
    _stores_records = False

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
        #: (kind, key, state before) per logged mutation: the record,
        #: the loaded document, or None when the key was absent.
        self._txn_undo: list[tuple[str, str, Any]] = []
        self._txn_ops = 0
        self._txn_id: Optional[str] = None
        self._journal = None
        #: External listeners, in subscription order: functions, or a
        #: ``WeakMethod`` per bound method (see :meth:`subscribe`).
        self._subscribers: list[Any] = []
        # Fast paths, kept current by the mutation-event stream (see
        # :meth:`_notify` for the order they hear it in).
        self._cache = RecordCache()
        # Keys the mutation choke points wrote whose "put" event is
        # still to fire: the just-written record is already cached, so
        # the invalidator must let it live (index maintenance re-reads
        # it through the cache right after the event).  A set:
        # add_derivation declares datasets between its own put and its
        # event, and each of those puts is pending in its turn.
        self._cache_fresh: set[tuple[str, str]] = set()
        self._indexes = CatalogIndexes(self)
        self._analyzer: Optional[Any] = None
        self._graph_cache: Optional[Any] = None

    # ------------------------------------------------------------------
    # storage primitives (implemented by backends)
    # ------------------------------------------------------------------

    def _store_put(self, kind: str, key: str, payload: dict) -> None:
        """Store ``payload`` (a document) under the key.

        The caller keeps the document: a backend writes it out and
        holds no reference into it.
        """
        raise NotImplementedError

    def _store_get(self, kind: str, key: str) -> Optional[dict]:
        """The stored document, owned by the caller; None if absent."""
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

    def torn_segments(self, truncate: bool = False) -> list[Path]:
        """Append-only segments whose last line a crash tore (for
        ``repro fsck``); ``truncate`` cuts those lines off."""
        return []

    def _store_put_many(
        self, kind: str, items: list[tuple[str, dict]]
    ) -> None:
        """Raw batched write of documents: no events, no index or
        cache upkeep, no undo log.

        Only for bulk-load paths that log and announce the written keys
        themselves (:meth:`import_snapshot`): SQLite runs one
        ``executemany``, the file tree one append.
        """
        raise NotImplementedError

    def _store_scan(self, kind: str) -> Iterator[tuple[str, dict]]:
        """Yield every ``(key, document)`` of a kind for bulk readers."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # records: the in-process form (document backends; the memory
    # backend overrides these with its store)
    # ------------------------------------------------------------------

    def _put_record(
        self, kind: str, key: str, record: Any, payload: Optional[dict]
    ) -> None:
        """Store a private record; ``payload`` is its document when the
        put already built one (a journaled put), else None.

        A document backend writes the document (encoding it here if
        need be: once per put) and caches the record write-through, so
        index maintenance and the common read-after-write skip the
        backend read and the decode.
        """
        self._store_put(
            kind, key, payload if payload is not None else record.to_dict()
        )
        self._cache.put(kind, key, record)
        self._cache_fresh.add((kind, key))

    def _at_rest(
        self, kind: str, key: str, keep: bool = True
    ) -> Optional[Any]:
        """The stored object as the cache or the store holds it — a
        record, or the document loaded for it — for readers that take
        a few fields off either form (:mod:`repro.catalog.payloads`)
        and decode nothing.  Shared: read only.

        ``keep=False`` for bulk walks: a miss does not populate the
        cache, so a planner walk over 10^5+ objects does not evict the
        working set.  The index rebuild at open is such a walk too (it
        reads through :meth:`_scan`): an open caches nothing.
        """
        entry = self._cache.get(kind, key)
        if keep:
            self._obs_cache_op(hit=entry is not None)
        if entry is None:
            entry = self._store_get(kind, key)
            if keep and entry is not None:
                self._cache.put(kind, key, entry)
        return entry

    def _find_record(self, kind: str, key: str) -> Optional[Any]:
        """The stored record — shared, read-only — or None.

        A cold read decodes the loaded document once, and the cache
        keeps the record from the second decode on (see
        :class:`RecordCache`).
        """
        entry = self._at_rest(kind, key)
        if entry is None or type(entry) is not dict:
            return entry
        record = _DECODERS[kind](entry)
        self._cache.decoded(kind, key, record)
        return record

    def _peek_record(self, kind: str, key: str) -> Optional[Any]:
        """:meth:`_find_record` for bulk walks: neither a miss nor a
        decode leaves anything in the cache."""
        entry = self._at_rest(kind, key, keep=False)
        if entry is None or type(entry) is not dict:
            return entry
        return _DECODERS[kind](entry)

    def _scan(self, kind: str) -> Iterator[tuple[str, Any]]:
        """Every ``(key, object at rest)`` of a kind for bulk readers:
        loaded documents here, records on the memory backend.  Read
        only, and not retained."""
        return self._store_scan(kind)

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

    @_synchronized
    def subscribe(self, callback: Callable[[str, str, str], None]) -> None:
        """Register ``callback(event, kind, key)`` for every mutation.

        A bound method is held weakly: its object (a planner, a
        federation, an analyzer) listens for as long as its owner keeps
        it, and is freed when dropped.  Functions, lambdas and other
        callables are held strongly.
        """
        if isinstance(callback, MethodType):
            callback = weakref.WeakMethod(callback)
        self._subscribers = [*self._subscribers, callback]

    @_synchronized
    def unsubscribe(self, callback: Callable[[str, str, str], None]) -> None:
        subscribers = list(self._subscribers)
        subscribers.remove(
            weakref.WeakMethod(callback) if isinstance(callback, MethodType)
            else callback
        )
        self._subscribers = subscribers

    def _notify(self, event: str, kind: str, key: str) -> None:
        """Deliver one mutation event: first to what the catalog owns —
        the record cache, then the indexes and their graph, then the
        live analyzer — and then to each subscriber in the order they
        subscribed.  Each hears it after the ones before it applied it:
        index maintenance re-reads objects through the cache, and later
        listeners read the graph and :attr:`CatalogIndexes.touched`."""
        self._invalidate_cached(event, kind, key)
        self._indexes.on_event(event, kind, key)
        if self._analyzer is not None:
            self._analyzer.on_event(event, kind, key)
        for callback in self._subscribers:
            if type(callback) is weakref.WeakMethod:
                callback = callback()
                if callback is None:  # its object was dropped
                    self._subscribers = [
                        s for s in self._subscribers
                        if type(s) is not weakref.WeakMethod
                        or s() is not None
                    ]
                    continue
            callback(event, kind, key)

    # ------------------------------------------------------------------
    # record cache and index maintenance
    # ------------------------------------------------------------------

    def _invalidate_cached(self, event: str, kind: str, key: str) -> None:
        if (kind, key) in self._cache_fresh:
            self._cache_fresh.discard((kind, key))
            if event == "put":
                # Write-through from _put_record: the cache already
                # holds the new record; keep it.
                return
        self._cache.invalidate(kind, key)

    @_synchronized
    def _record(self, kind: str, key: str) -> Any:
        """The stored record — shared, read-only.

        The public accessors hand out its ``copy()``; readers that only
        inspect use it as is, and must neither mutate it nor keep it
        across a mutation.  A derivation's record is the one the
        derivation graph holds (``derivation_graph().derivation(name)``):
        one object per stored derivation, whoever asks.
        """
        if kind == "derivation":
            try:
                return self._indexes.graph.derivation(key)
            except KeyError:
                # Stored but not linked yet (its put event is still to
                # fire), or absent.
                pass
        record = self._find_record(kind, key)
        if record is None:
            raise NotFoundError(f"{kind} {key!r} not found")
        return record

    def _derivation_loader(self) -> Callable[[str], Derivation]:
        """What the live graph loads derivations with: the catalog owns
        the graph, so this reaches the catalog weakly."""
        catalog = weakref.ref(self)
        return lambda name: catalog()._load_derivation(name)

    @_synchronized
    def _load_derivation(self, name: str) -> Derivation:
        """The derivation graph's loader: a peek, so a planner walk
        over 10^5+ derivations leaves the cache alone.  The graph
        keeps what this returns (on a memory catalog, the store does)."""
        dv = self._peek_record("derivation", name)
        if dv is None:
            raise NotFoundError(f"derivation {name!r} not found")
        return dv

    def _obs_cache_op(self, hit: bool) -> None:
        if not self._obs.enabled:
            return
        cached = self._obs_cache.get("payload-cache")
        if cached is None:
            metrics = self._obs.metrics
            cached = self._obs_cache["payload-cache"] = (
                metrics.counter(
                    "catalog.index.hits",
                    help="catalog lookups served from the record cache",
                ),
                metrics.counter(
                    "catalog.index.misses",
                    help="catalog lookups that fell through to storage",
                ),
            )
        (cached[0] if hit else cached[1]).inc_at(())

    def cache_stats(self) -> dict[str, int]:
        """Record-cache hit/miss/size counters (for stats and tests)."""
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

            analyzer = IncrementalAnalyzer(self, file=file, obs=self._obs)
            # Owned: _notify calls it directly, right after the indexes.
            self.unsubscribe(analyzer.on_event)
            self._analyzer = analyzer
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
            before: dict[tuple[str, str], Any] = {}
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
                    payload=document(prev),
                )
                self._txn_ops += 1
            self._restore(kind, key, prev)
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

    def _log(
        self, op: str, kind: str, key: str, payload: Optional[dict] = None
    ) -> None:
        """Log a mutation about to be applied inside a transaction: its
        undo entry, and — with a journal — its intent (the document it
        writes and the one it replaces).

        The undo state is read only when something may need it: a
        rollback on error, or the journal's record of what was there.
        """
        if not self._txn_depth:
            return
        if not self._txn_rollback_on_error and self._txn_id is None:
            return
        # What the key holds now.  Stored objects are replaced, never
        # edited, so the entry stays valid after the key is overwritten.
        prev = self._at_rest(kind, key, keep=False)
        self._txn_undo.append((kind, key, prev))
        if self._txn_id is not None:
            self._journal.record(
                self._txn_id, op, kind, key, payload=payload, prev=document(prev)
            )
            self._txn_ops += 1
            crashpoint("catalog.commit.op")

    def _apply_put(self, kind: str, key: str, obj: Any) -> None:
        """Journal-then-apply a put of ``obj`` (the mutation choke point).

        What is stored is a private copy (:func:`owned`): mutating
        ``obj`` afterwards changes neither the store nor any reader.
        A journaled put encodes its document once, for the journal and
        the store alike.
        """
        record, payload = owned(kind, obj, _DECODERS[kind])
        if self._txn_id is not None and payload is None:
            payload = record.to_dict()
        self._log("put", kind, key, payload)
        self._put_record(kind, key, record, payload)
        if kind == "derivation":
            # The graph re-links on the put event, which add_derivation
            # fires only after declaring datasets; whoever reads in
            # between gets the new record.
            self._indexes.graph.forget(key)

    def _apply_delete(self, kind: str, key: str) -> None:
        """Journal-then-apply a delete (the mutation choke point)."""
        self._log("delete", kind, key)
        self._store_delete(kind, key)

    def _restore(self, kind: str, key: str, state: Any) -> None:
        """Put back an undo state and announce it (lock held)."""
        if state is None or type(state) is dict:
            self.restore_payload(kind, key, state)
        else:
            self._put_record(kind, key, state, None)
            self._notify("put", kind, key)

    @_synchronized
    def restore_payload(
        self, kind: str, key: str, payload: Optional[dict]
    ) -> None:
        """Force a raw payload (recovery primitive; bypasses validation).

        ``payload=None`` deletes the key.  Fires the normal mutation
        events so the cache, indexes, and any live analyzer stay
        coherent.  Used by journal rollback/replay and ``repro fsck``
        repairs; not part of the application-facing API.  The caller
        keeps its document (a journal record, a repair plan).
        """
        if payload is None:
            if self._store_has(kind, key):
                self._store_delete(kind, key)
                self._notify("delete", kind, key)
        else:
            self._store_put(kind, key, payload)
            self._notify("put", kind, key)

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------

    @_synchronized
    def add_dataset(self, dataset: Dataset, replace: bool = False) -> None:
        """Register a dataset definition.

        ``replace=True`` permits updating an existing record (a new
        type, attributes or producer).
        """
        t0 = self._obs_t0()
        if not replace and self._store_has("dataset", dataset.name):
            raise DuplicateEntryError(f"dataset {dataset.name!r} already defined")
        self._apply_put("dataset", dataset.name, dataset)
        self._notify("put", "dataset", dataset.name)
        self._obs_op("insert", "dataset", t0)

    @_synchronized
    def get_dataset(self, name: str) -> Dataset:
        t0 = self._obs_t0()
        ds = self._record("dataset", name).copy()
        self._obs_op("lookup", "dataset", t0)
        return ds

    @_synchronized
    def has_dataset(self, name: str) -> bool:
        return self._store_has("dataset", name)

    @_synchronized
    def is_materialized(self, name: str) -> bool:
        """Whether ``name`` has bytes behind it: the one materialization
        rule.

        A dataset some derivation produces is materialized if and only
        if it has a replica; its record's descriptor is never consulted
        (a copy of a replica descriptor older trees carry there is
        inert).  A dataset nothing produces also counts when its record
        declares a concrete descriptor.
        """
        if self._indexes.replicas_of.get(name):
            return True
        if self._indexes.graph.producer_names(name):
            return False
        entry = self._at_rest("dataset", name)
        return entry is not None and is_concrete(entry)

    @_synchronized
    def dataset_size(self, name: str, default: int) -> int:
        """A dataset's planning size in bytes: a ``size`` attribute on
        its record, else its newest file replica's size, else its
        descriptor's nominal size, else ``default``.

        Read off the objects at rest without caching them, so a planner
        walk over 10^5+ outputs neither decodes nor evicts anything.
        """
        replica_size = None
        for rid in sorted(self._indexes.replicas_of.get(name, ()), reverse=True):
            replica_size = file_size(self._at_rest("replica", rid, keep=False))
            if replica_size is not None:
                break
        entry = self._at_rest("dataset", name, keep=False)
        if entry is None:
            return default if replica_size is None else replica_size
        return dataset_size(entry, default, replica_size)

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
        self._apply_put("replica", replica.replica_id, replica)
        self._notify("put", "replica", replica.replica_id)
        self._obs_op("insert", "replica", t0)

    @_synchronized
    def get_replica(self, replica_id: str) -> Replica:
        return self._record("replica", replica_id).copy()

    @_synchronized
    def remove_replica(self, replica_id: str) -> None:
        if not self._store_has("replica", replica_id):
            raise NotFoundError(f"replica {replica_id!r} not found")
        self._apply_delete("replica", replica_id)
        self._notify("delete", "replica", replica_id)

    def replicas_of(self, dataset_name: str) -> list[Replica]:
        """All registered physical copies of ``dataset_name``."""
        return [r.copy() for r in self._replica_records_of(dataset_name)]

    @_synchronized
    def _replica_records_of(self, dataset_name: str) -> list[Replica]:
        """:meth:`replicas_of` as the shared records — read-only."""
        ids = sorted(self._indexes.replicas_of.get(dataset_name, ()))
        return [self._record("replica", rid) for rid in ids]

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
        self._apply_put("transformation", key, tr)
        self._notify("put", "transformation", key)
        self._obs_op("insert", "transformation", t0)

    def get_transformation(
        self, name: str, version: Optional[str] = None
    ) -> Transformation:
        """Fetch by name; latest version when ``version`` is omitted.

        The caller owns the returned object: it is a copy of the stored
        record, serialized XML included, so neither the lookup nor a
        later :meth:`Transformation.to_dict` (recipe stamping) pays for
        XML again.
        """
        return self._transformation_record(name, version).copy()

    @_synchronized
    def _transformation_record(
        self, name: str, version: Optional[str] = None
    ) -> Transformation:
        """The shared record — callers must not mutate it."""
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
            tr = self._record("transformation", f"{name}@{version}")
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
        tr = (
            self._local_transformation(dv) if validate or auto_declare
            else None
        )
        if validate and tr is not None:
            self._check_against(dv, tr)
        self._apply_put("derivation", dv.name, dv)
        if auto_declare:
            self._declare_mentioned_datasets(dv, tr)
        self._notify("put", "derivation", dv.name)
        self._obs_op("insert", "derivation", t0)

    def _declare_mentioned_datasets(
        self, dv: Derivation, tr: Optional[Transformation]
    ) -> None:
        formal_types = _formal_types(tr) if tr is not None else {}
        for formal_name, arg in dv.dataset_args():
            if not self._store_has("dataset", arg.dataset):
                dtype = formal_types.get(formal_name)
                ds = Dataset(name=arg.dataset, dataset_type=dtype or DatasetType())
                if arg.is_output:
                    ds.producer = dv.name
                self.add_dataset(ds)
            elif (
                arg.is_output
                and self._record("dataset", arg.dataset).producer != dv.name
            ):
                ds = self.get_dataset(arg.dataset)
                ds.producer = dv.name
                self.add_dataset(ds, replace=True)

    def _local_transformation(
        self, dv: Derivation
    ) -> Optional[Transformation]:
        """The registered record ``dv`` calls, or ``None`` for a remote
        or unregistered transformation (both are tolerated)."""
        ref = dv.transformation
        if not ref.is_local or not self.has_transformation(ref.name):
            return None
        return self._transformation_record(ref.name)

    @_synchronized
    def get_derivation(self, name: str) -> Derivation:
        t0 = self._obs_t0()
        dv = self._record("derivation", name).copy()
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
        tr = self._local_transformation(dv)
        if tr is not None:
            self._check_against(dv, tr)

    def _check_against(self, dv: Derivation, tr: Transformation) -> None:
        dv.check_against(tr)
        for formal_name, arg in dv.dataset_args():
            formal = tr.signature.formal(formal_name)
            if formal.is_string:
                continue
            if not self._store_has("dataset", arg.dataset):
                continue
            ds = self._record("dataset", arg.dataset)
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
        self._apply_put("invocation", inv.invocation_id, inv)
        self._notify("put", "invocation", inv.invocation_id)
        self._obs_op("insert", "invocation", t0)

    @_synchronized
    def get_invocation(self, invocation_id: str) -> Invocation:
        return self._record("invocation", invocation_id).copy()

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
        given type; ``virtual`` filters on materialization state
        (:meth:`is_materialized`).
        """
        t0 = self._obs_t0()
        out = []
        for name in self.dataset_names():
            if name_glob and not fnmatch.fnmatchcase(name, name_glob):
                continue
            ds = self._record("dataset", name)
            if conforms_to is not None and not self.types.conforms(
                ds.dataset_type, conforms_to
            ):
                continue
            if attributes and not ds.attributes.matches(attributes):
                continue
            if virtual is not None and self.is_materialized(name) == virtual:
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
            tr = self._transformation_record(name, version)
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
            dv = self._record("derivation", name)
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

    @_synchronized
    def export_vdl(self) -> str:
        """Render the catalog's TRs and DVs back to VDL text, each DV's
        actuals in its transformation's formal order (others last, by
        name): one text on every backend, live or reopened."""
        from repro.vdl.unparser import unparse

        ranks: dict[Any, dict[str, int]] = {}
        derivations = list(self.derivations())
        for dv in derivations:
            if dv.transformation not in ranks:
                tr = self._local_transformation(dv)
                formals = tr.signature.formals if tr is not None else []
                ranks[dv.transformation] = {f.name: i for i, f in enumerate(formals)}
            rank = ranks[dv.transformation]
            ordered = sorted(dv.actuals, key=lambda n: (rank.get(n, len(rank)), n))
            dv.actuals = {name: dv.actuals[name] for name in ordered}
        return unparse(list(self.transformations()), derivations)

    # ------------------------------------------------------------------
    # bulk export / import (used by federation snapshots and tests)
    # ------------------------------------------------------------------

    @_synchronized
    def export_snapshot(self) -> dict[str, dict[str, dict]]:
        """Dump every stored object as a document (owned by the
        caller), keyed by kind then key."""
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

        Logged like any other put (so an enclosing transaction that
        aborts takes the import back, and a journal records it), written
        in per-kind batches, then announced as one ordinary ``put``
        event per key, so every subscriber — indexes, analyzer,
        federation, planners — follows the import like any other write.
        The snapshot stays the caller's.
        """
        with self.bulk():
            for kind in KINDS:
                items = list(snapshot.get(kind, {}).items())
                for key, payload in items:
                    self._log("put", kind, key, payload)
                self._store_put_many(kind, items)
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
