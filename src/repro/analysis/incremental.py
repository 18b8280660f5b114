"""Live, incrementally-maintained analysis over a mutating catalog.

:class:`IncrementalAnalyzer` subscribes to the catalog's mutation
event stream — after :class:`repro.catalog.index.CatalogIndexes`, whose
structures it reads rather than copies — and maintains:

* the :class:`GraphModel` the dataflow passes consult: a window on the
  catalog's derivation graph and replica/transformation indexes, plus
  what no index holds (execution records, declared dataset types,
  interprocedural transformation summaries, the shared-writer index);
* per-pass fact tables and per-node diagnostic caches, re-solved
  lazily over only the dirty region when queried;
* a live :class:`~repro.analysis.context.AnalysisContext` so the
  classic VDG lint rules can run against the catalog without the
  export-VDL/reparse round trip (``repro lint --incremental``).

Mutation handling is O(degree) per event; querying pays only for the
cone the mutations actually influence.  A cold query after
:meth:`rebuild` is a full fixpoint solve — by construction the two
paths produce byte-identical diagnostics (property-tested in
``tests/analysis/test_incremental_property.py``).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.context import (
    ActualInfo,
    AnalysisContext,
    DVInfo,
    TRInfo,
    split_target,
)
from repro.analysis.dataflow import (
    DERIVATIONS,
    PerKind,
    SolveStats,
    fact_tables,
    members,
    name_sets,
    solve,
)
from repro.analysis.diagnostics import Diagnostic, Span
from repro.analysis.passes import (
    INTERNAL,
    SURFACE,
    default_passes,
    orphan_invocation_diagnostics,
)
from repro.core.derivation import DatasetArg, Derivation
from repro.core.recipe import RECIPE_DIGEST_ATTR, TR_VERSION_ATTR, recipe_digest
from repro.core.types import DatasetType
from repro.core.versioning import Version
from repro.observability.instrument import NULL, Instrumentation
from repro.vdl.ast import DatasetRefNode, FormalRefNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.provenance.graph import DerivationGraph

_OUT = ("output", "inout")
_IN = ("input", "inout")

#: ``(start_time, status, tr_version, recipe_digest)`` per invocation.
_InvMeta = Tuple[float, str, Optional[str], Optional[str]]


def _version_key(version: str) -> Any:
    try:
        return (0, Version.parse(version))
    except Exception:
        return (1, version)


class GraphModel:
    """Everything the dataflow passes may ask about the catalog.

    Structure is read, not kept: adjacency comes from the catalog's
    derivation graph (:attr:`graph`), bindings from its shared decoded
    :class:`~repro.core.derivation.Derivation` objects, replica
    presence and transformation fan-out from the catalog indexes.
    What the model owns is what no index holds — per-invocation recipe
    metadata and declared dataset types, updated per mutation event —
    and memoized derived knowledge (transformation summaries, current
    recipes, the conflict writer index), invalidated when its inputs
    change.
    """

    def __init__(self, catalog: Any, file: str) -> None:
        self.catalog = catalog
        self.file = file
        self._indexes = catalog._indexes
        self._span = Span(file=file, line=0)
        #: Derivation name -> invocation id -> metadata.
        self._invs_by_dv: Dict[str, Dict[str, _InvMeta]] = {}
        # -- memoized derived state --
        self._tr_table_cache: Optional[Dict[str, List[TRInfo]]] = None
        self._tr_objects: Dict[str, Any] = {}
        self._deep_out: Dict[Tuple[str, str], Any] = {}
        self._deep_req: Dict[Tuple[str, str], Any] = {}
        self._sinks: Dict[str, Tuple[Dict[str, int], Tuple[str, ...]]] = {}
        self._recipe_cache: Dict[str, Any] = {}
        self._ds_types: Dict[str, Optional[DatasetType]] = {}
        self._conflict_writers: Dict[str, Dict[str, Tuple[str, ...]]] = {}

    # -- trivia the passes need ---------------------------------------

    @property
    def types(self) -> Any:
        return self.catalog.types

    def span(self) -> Span:
        return self._span

    @property
    def graph(self) -> DerivationGraph:
        """The catalog's derivation graph — shared, read-only."""
        return self._indexes.graph

    def derivation(self, name: str) -> Derivation:
        """The graph's shared decoded derivation — read-only."""
        return self._indexes.graph.derivation(name)

    def has_replica(self, lfn: str) -> bool:
        return bool(self._indexes.replicas_of.get(lfn))

    def dv_target(self, name: str) -> str:
        return self.derivation(name).transformation.vdl_text()

    def dataset_declared_type(self, lfn: str) -> Optional[DatasetType]:
        """The record's dataset type when concretely declared.

        Reads the shared cached payload rather than
        ``catalog.get_dataset`` — this runs once per dataset node per
        full solve, and the accessor's isolation deep-copy dominates
        at 10^5 nodes.
        """
        if lfn in self._ds_types:
            return self._ds_types[lfn]
        payload = self.catalog._cached_payload("dataset", lfn)
        return self.prime_dataset_type(lfn, payload)

    def prime_dataset_type(
        self, lfn: str, payload: Optional[Mapping[str, Any]]
    ) -> Optional[DatasetType]:
        """Decode and cache a dataset record's declared type."""
        declared: Optional[DatasetType] = None
        if payload is not None:
            spec = payload.get("type") or {}
            dtype = DatasetType(
                content=spec.get("content", DatasetType.content),
                format=spec.get("format", DatasetType.format),
                encoding=spec.get("encoding", DatasetType.encoding),
            )
            if not dtype.is_any():
                declared = dtype
        self._ds_types[lfn] = declared
        return declared

    # -- event upkeep (called by the analyzer) -------------------------

    def around(
        self, datasets: Iterable[str] = (), derivations: Iterable[str] = ()
    ) -> PerKind:
        """The live ones among the named nodes, each with its neighbours."""
        producers, consumers, inputs, outputs = self.graph.adjacency()
        seeds = name_sets()
        for lfn in datasets:
            if lfn in producers:
                seeds.datasets.add(lfn)
                seeds.derivations.update(producers[lfn], consumers[lfn])
        for name in derivations:
            if name in inputs:
                seeds.derivations.add(name)
                seeds.datasets.update(inputs[name], outputs[name])
        return seeds

    def forget_recipe(self, dvn: str) -> None:
        self._recipe_cache.pop(dvn, None)

    def index_invocation(
        self, invocation_id: str, payload: Mapping[str, Any]
    ) -> None:
        attrs = payload.get("attributes") or {}
        meta: _InvMeta = (
            float(payload.get("start_time") or 0.0),
            payload.get("status") or "",
            attrs.get(TR_VERSION_ATTR),
            attrs.get(RECIPE_DIGEST_ATTR),
        )
        dvn = payload["derivation_name"]
        self._invs_by_dv.setdefault(dvn, {})[invocation_id] = meta

    def unindex_invocation(self, invocation_id: str, dvn: str) -> None:
        group = self._invs_by_dv.get(dvn)
        if group is not None:
            group.pop(invocation_id, None)
            if not group:
                del self._invs_by_dv[dvn]

    def invalidate_dataset(self, lfn: str) -> None:
        self._ds_types.pop(lfn, None)

    def invalidate_transformations(self, base_name: str) -> PerKind:
        """A TR (version) changed: drop summaries, seed dependent DVs."""
        affected = self._dependent_tr_names(base_name)
        self._tr_table_cache = None
        self._tr_objects.clear()
        self._deep_out.clear()
        self._deep_req.clear()
        self._sinks.clear()
        # By reference name, so a remote target of the same name is
        # re-judged too: harmless, and no derivation is decoded here.
        dependents: Set[str] = set()
        for target, callers in self._indexes.by_transformation.items():
            if split_target(target)[0] in affected:
                dependents.update(callers)
        for dvn in dependents:
            self._recipe_cache.pop(dvn, None)
        return self.around(derivations=dependents)

    def _dependent_tr_names(self, base_name: str) -> Set[str]:
        """``base_name`` plus every TR calling it, transitively."""
        callers: Dict[str, Set[str]] = {}
        for infos in self._tr_table().values():
            for info in infos:
                for call in info.calls:
                    callee = split_target(call.target)[0]
                    callers.setdefault(callee, set()).add(info.name)
        affected = {base_name}
        frontier = [base_name]
        while frontier:
            current = frontier.pop()
            for caller in callers.get(current, ()):
                if caller not in affected:
                    affected.add(caller)
                    frontier.append(caller)
        return affected

    # -- transformation views ------------------------------------------

    def _tr_table(self) -> Dict[str, List[TRInfo]]:
        """Name -> TRInfo per version, oldest first (catalog order)."""
        if self._tr_table_cache is None:
            table: Dict[str, List[TRInfo]] = {}
            for tr in self.catalog.transformations():
                info = AnalysisContext._from_transformation(tr)
                table.setdefault(info.name, []).append(info)
            for infos in table.values():
                infos.sort(key=lambda i: _version_key(i.version))
            self._tr_table_cache = table
        return self._tr_table_cache

    def resolve_trinfo(self, target: str) -> Optional[TRInfo]:
        """TRInfo for a DV/call target; None for remote or unknown."""
        if not target or target.startswith("vdp://"):
            return None
        name, version = split_target(target)
        infos = self._tr_table().get(name)
        if not infos:
            return None
        if version is not None:
            for info in infos:
                if info.version == version:
                    return info
        return infos[-1]

    def resolve_transformation(self, target: str) -> Any:
        """The core Transformation object for a local target, or None."""
        if not target or target.startswith("vdp://"):
            return None
        if target in self._tr_objects:
            return self._tr_objects[target]
        name, version = split_target(target)
        obj = None
        if self.catalog.has_transformation(name):
            try:
                obj = self.catalog.get_transformation(name, version)
            except Exception:
                try:
                    obj = self.catalog.get_transformation(name)
                except Exception:
                    obj = None
        self._tr_objects[target] = obj
        return obj

    # -- staleness support ---------------------------------------------

    def latest_success(self, dvn: str) -> Optional[Tuple[str, str]]:
        """(tr_version, recipe_digest) of the newest stamped success."""
        best: Optional[Tuple[float, str, str, str]] = None
        for inv_id, meta in self._invs_by_dv.get(dvn, {}).items():
            start, status, version, digest = meta
            if status != "success" or (not version and not digest):
                continue
            candidate = (start, inv_id, version or "", digest or "")
            if best is None or candidate > best:
                best = candidate
        if best is None:
            return None
        return (best[2], best[3])

    def current_recipe(self, dvn: str) -> Optional[Tuple[str, str]]:
        """(tr_version, recipe_digest) the catalog resolves today."""
        if dvn in self._recipe_cache:
            return self._recipe_cache[dvn]
        result: Optional[Tuple[str, str]] = None
        tr = self.resolve_transformation(self.dv_target(dvn))
        if tr is not None:
            payload = self.catalog._cached_payload("derivation", dvn)
            if payload is not None:
                result = (
                    tr.version,
                    recipe_digest(payload, tr.to_dict()),
                )
        self._recipe_cache[dvn] = result
        return result

    def root_dirty(self, dvn: str) -> Optional[str]:
        """Why this derivation's recipe drifted since execution."""
        recorded = self.latest_success(dvn)
        if recorded is None:
            return None
        current = self.current_recipe(dvn)
        if current is None:
            return None
        rec_version, rec_digest = recorded
        cur_version, cur_digest = current
        versions_differ = bool(
            rec_version and cur_version and rec_version != cur_version
        )
        if versions_differ:
            base = split_target(self.dv_target(dvn))[0]
            if self._versions_equivalent(base, rec_version, cur_version):
                return None
            return (
                f"transformation {base!r} changed: executed version "
                f"{rec_version}, catalog now resolves {cur_version}"
            )
        if rec_digest and cur_digest and rec_digest != cur_digest:
            return "recipe redefined since the last successful execution"
        return None

    def _versions_equivalent(self, base: str, a: str, b: str) -> bool:
        try:
            return bool(self.catalog.versions.equivalent(base, a, b))
        except Exception:
            return False

    # -- interprocedural summaries -------------------------------------

    def deep_output_types(
        self, target: str, formal: str
    ) -> Optional[Tuple[DatasetType, ...]]:
        """Types a (deeply expanded) output formal can emit; None=any."""
        key = (target, formal)
        if key not in self._deep_out:
            self._deep_out[key] = self._compute_deep_out(
                target, formal, set()
            )
        return self._deep_out[key]

    def _compute_deep_out(
        self, target: str, formal: str, visiting: Set[Tuple[str, str]]
    ) -> Optional[Tuple[DatasetType, ...]]:
        info = self.resolve_trinfo(target)
        if info is None:
            return None
        declared = info.formal(formal)
        if declared is None or declared.is_string:
            return None
        if declared.types is not None:
            return tuple(sorted(declared.types.members, key=str))
        if not info.is_compound or (target, formal) in visiting:
            return None
        visiting = visiting | {(target, formal)}
        members: Set[DatasetType] = set()
        contributed = False
        for call in info.calls:
            for callee_formal, value, _line in call.bindings:
                if (
                    not isinstance(value, FormalRefNode)
                    or value.name != formal
                ):
                    continue
                callee = self.resolve_trinfo(call.target)
                if callee is None:
                    return None
                cf = callee.formal(callee_formal)
                if cf is None or cf.is_string or cf.direction not in _OUT:
                    continue
                deep = self._compute_deep_out(
                    call.target, callee_formal, visiting
                )
                if deep is None:
                    return None
                members.update(deep)
                contributed = True
        if not contributed or not members:
            return None
        return tuple(sorted(members, key=str))

    def deep_requirements(
        self, target: str, formal: str
    ) -> Tuple[Tuple[str, Tuple[DatasetType, ...]], ...]:
        """Typed input constraints a surface-untyped formal feeds.

        Each entry is ``(path, members)`` naming the typed callee
        formal inside a compound body.  Empty when the surface formal
        is itself typed (``VDG105`` territory) or no constraint exists.
        """
        key = (target, formal)
        if key not in self._deep_req:
            self._deep_req[key] = self._compute_deep_req(
                target, formal, set()
            )
        return self._deep_req[key]

    def _compute_deep_req(
        self, target: str, formal: str, visiting: Set[Tuple[str, str]]
    ) -> Tuple[Tuple[str, Tuple[DatasetType, ...]], ...]:
        info = self.resolve_trinfo(target)
        if info is None or not info.is_compound:
            return ()
        declared = info.formal(formal)
        if declared is None or declared.is_string:
            return ()
        if declared.types is not None:
            return ()
        if (target, formal) in visiting:
            return ()
        visiting = visiting | {(target, formal)}
        requirements: List[Tuple[str, Tuple[DatasetType, ...]]] = []
        for call in info.calls:
            for callee_formal, value, _line in call.bindings:
                if (
                    not isinstance(value, FormalRefNode)
                    or value.name != formal
                ):
                    continue
                callee = self.resolve_trinfo(call.target)
                if callee is None:
                    continue
                cf = callee.formal(callee_formal)
                if cf is None or cf.is_string or cf.direction not in _IN:
                    continue
                if cf.types is not None:
                    requirements.append(
                        (
                            f"{callee.name}.{callee_formal}",
                            tuple(sorted(cf.types.members, key=str)),
                        )
                    )
                else:
                    requirements.extend(
                        self._compute_deep_req(
                            call.target, callee_formal, visiting
                        )
                    )
        return tuple(requirements)

    # -- conflict support ----------------------------------------------

    def expanded_writes(self, dvn: str) -> List[Tuple[str, str]]:
        """(lfn, via) write multiset once compound bodies are expanded."""
        writes: List[Tuple[str, str]] = []
        counts, literals = self._write_sinks(self.dv_target(dvn))
        for formal, arg in self.derivation(dvn).dataset_args():
            if arg.direction not in _OUT:
                continue
            writes.append((arg.dataset, SURFACE))
            extra = counts.get(formal, 0) - 1
            if extra > 0:
                writes.extend([(arg.dataset, INTERNAL)] * extra)
        writes.extend((lfn, INTERNAL) for lfn in literals)
        return writes

    def _write_sinks(
        self, target: str, visiting: Optional[Set[str]] = None
    ) -> Tuple[Dict[str, int], Tuple[str, ...]]:
        """formal -> write count, plus literal LFNs written inside."""
        if visiting is None and target in self._sinks:
            return self._sinks[target]
        visiting = visiting or set()
        info = self.resolve_trinfo(target)
        if info is None or target in visiting:
            return ({}, ())
        if not info.is_compound:
            counts = {
                f.name: 1
                for f in info.formals
                if not f.is_string and f.direction in _OUT
            }
            result = (counts, ())
        else:
            counts = {}
            literals: List[str] = []
            for call in info.calls:
                callee_counts, callee_literals = self._write_sinks(
                    call.target, visiting | {target}
                )
                bound = {
                    callee_formal: value
                    for callee_formal, value, _line in call.bindings
                }
                for callee_formal, count in callee_counts.items():
                    value = bound.get(callee_formal)
                    if isinstance(value, FormalRefNode):
                        counts[value.name] = (
                            counts.get(value.name, 0) + count
                        )
                    elif isinstance(value, str):
                        literals.extend([value] * count)
                    # unbound -> synthesized scratch LFN, never shared
                literals.extend(callee_literals)
            result = (counts, tuple(literals))
        if not visiting:
            self._sinks[target] = result
        return result

    def writers_of(self, lfn: str) -> Dict[str, Tuple[str, ...]]:
        return self._conflict_writers.get(lfn, {})

    def clear_writer_index(self) -> None:
        self._conflict_writers.clear()

    def update_writer_index(
        self,
        dvn: str,
        old: Iterable[Tuple[str, str]],
        new: Iterable[Tuple[str, str]],
    ) -> Set[str]:
        """Sync the shared-LFN index; returns the co-writers' names."""
        old_map: Dict[str, List[str]] = {}
        for lfn, via in old:
            old_map.setdefault(lfn, []).append(via)
        new_map: Dict[str, List[str]] = {}
        for lfn, via in new:
            new_map.setdefault(lfn, []).append(via)
        affected = {
            lfn
            for lfn in set(old_map) | set(new_map)
            if sorted(old_map.get(lfn, [])) != sorted(new_map.get(lfn, []))
        }
        for lfn in set(old_map) - set(new_map):
            entry = self._conflict_writers.get(lfn)
            if entry is not None:
                entry.pop(dvn, None)
                if not entry:
                    del self._conflict_writers[lfn]
        for lfn, vias in new_map.items():
            self._conflict_writers.setdefault(lfn, {})[dvn] = tuple(
                sorted(vias)
            )
        extra: Set[str] = set()
        for lfn in affected:
            for other in self._conflict_writers.get(lfn, {}):
                if other != dvn:
                    extra.add(other)
        return extra

    # -- dead-data support ---------------------------------------------

    def orphan_invocations(self) -> List[Tuple[str, str]]:
        """(invocation_id, derivation_name) whose derivation is gone."""
        orphans: List[Tuple[str, str]] = []
        live = members(self.graph).derivations
        for dvn, group in self._invs_by_dv.items():
            if dvn in live:
                continue
            orphans.extend((inv_id, dvn) for inv_id in group)
        return orphans


def _dv_info(dv: Derivation) -> DVInfo:
    """Normalize a catalog derivation into a DVInfo (line 0)."""
    actuals = [
        ActualInfo(
            name=formal,
            value=DatasetRefNode(
                direction=value.direction,
                lfn=value.dataset,
                temporary=value.temporary,
            )
            if isinstance(value, DatasetArg)
            else value,
        )
        for formal, value in dv.actuals.items()
    ]
    return DVInfo(
        name=dv.name, target=dv.transformation.vdl_text(), actuals=actuals
    )


class _PassState:
    """Facts, dirtiness and cached reports for one pass."""

    __slots__ = ("pass_", "facts", "dirty", "solved", "reports", "stats")

    def __init__(self, pass_: Any) -> None:
        self.pass_ = pass_
        self.facts = fact_tables()
        self.dirty = name_sets()
        self.solved = False
        #: Per kind, name -> its non-empty tuple of diagnostics.
        self.reports = fact_tables()
        self.stats = SolveStats()


class IncrementalAnalyzer:
    """Event-subscribed façade over the model, passes, and lint view."""

    def __init__(
        self,
        catalog: Any,
        file: str = "<catalog>",
        passes: Optional[Iterable[Any]] = None,
        obs: Instrumentation = NULL,
    ) -> None:
        self.catalog = catalog
        self.file = file
        self.obs = obs
        self.model = GraphModel(catalog, file)
        self._states: Dict[str, _PassState] = {}
        for pass_ in passes if passes is not None else default_passes():
            self._states[pass_.name] = _PassState(pass_)
        self._events = 0
        self._solves = 0
        #: (nodes, derivations) of the graph as of the last event heard.
        self._sizes = (0, 0)
        #: ``catalog.versions.assertion_count`` the solved facts reflect.
        self._assertions_seen = catalog.versions.assertion_count
        self._ctx: Optional[AnalysisContext] = None
        self._ctx_dirty = True
        self._orphan_cache: Optional[Tuple[Diagnostic, ...]] = None
        self.rebuild()
        catalog.subscribe(self.on_event)

    def close(self) -> None:
        """Detach from the catalog's event stream."""
        self.catalog.unsubscribe(self.on_event)

    @property
    def pass_names(self) -> List[str]:
        return list(self._states)

    # -- event intake ---------------------------------------------------

    def on_event(self, event: str, kind: str, key: str) -> None:
        """Catalog mutation hook: update the model, mark dirt, return.

        The indexes heard this event first, so the graph already shows
        its outcome; what it unlinked is no longer readable there and
        arrives in ``touched`` (see :class:`CatalogIndexes`).
        """
        self._events += 1
        model = self.model
        touched = self.catalog._indexes.touched
        seeds = name_sets()
        if kind == "derivation":
            live = members(model.graph)
            for which, names in enumerate((touched, (key,))):
                for name in names:
                    if name in live[which]:
                        seeds[which].add(name)
                    else:
                        self._forget_node(which, name)
            self._sizes = (len(model.graph), len(live.derivations))
            model.forget_recipe(key)
            self._orphan_cache = None
            self._ctx_dirty = True
        elif kind == "replica":
            seeds = model.around(datasets=touched)
            self._ctx_dirty = True
        elif kind == "transformation":
            base = split_target(key)[0]
            seeds = model.invalidate_transformations(base)
            self._ctx_dirty = True
        elif kind == "invocation":
            for dvn in touched:
                model.unindex_invocation(key, dvn)
            if event == "put":
                payload = self.catalog._cached_payload("invocation", key)
                if payload is not None:
                    model.index_invocation(key, payload)
            seeds = model.around(derivations=touched)
            self._orphan_cache = None
        elif kind == "dataset":
            model.invalidate_dataset(key)
            seeds = model.around(datasets=(key,))
            self._ctx_dirty = True
        if any(seeds):
            for state in self._states.values():
                for dirty, names in zip(state.dirty, seeds):
                    dirty |= names

    def _forget_node(self, kind: int, name: str) -> None:
        """Drop per-node state for a node that left the graph."""
        for state in self._states.values():
            old = state.facts[kind].pop(name, None)
            state.reports[kind].pop(name, None)
            hook = state.pass_.on_fact_change
            if kind == DERIVATIONS and hook is not None:
                state.dirty.derivations.update(hook(name, old, None, self.model))

    # -- rebuild (cold start / snapshot import) ------------------------

    def rebuild(self) -> None:
        """Re-derive everything from the backing store."""
        with self.obs.span("analysis.rebuild", file=self.file), (
            self.catalog._lock
        ):
            catalog = self.catalog
            self.model = GraphModel(catalog, self.file)
            model = self.model
            # Only what no catalog index holds is read from storage.
            # Bulk scans: payloads are backend-owned shared documents
            # (read here, never retained), skipping the per-object
            # isolation copy that dominates at 10^5 objects.
            for inv_id, payload in catalog._store_scan("invocation"):
                model.index_invocation(inv_id, payload)
            for lfn, payload in catalog._store_scan("dataset"):
                model.prime_dataset_type(lfn, payload)
            graph = model.graph
            self._sizes = (len(graph), len(members(graph).derivations))
            for state in self._states.values():
                for table in (*state.facts, *state.reports, *state.dirty):
                    table.clear()
                state.solved = False
            self._ctx = None
            self._ctx_dirty = True
            self._orphan_cache = None

    def invalidate(self) -> None:
        """Force the next query to re-solve everything from scratch.

        For out-of-band knowledge changes the catalog cannot signal.
        (Version-compatibility assertions are noticed at query time.)
        """
        for state in self._states.values():
            state.solved = False
            for names in state.dirty:
                names.clear()
        self._ctx_dirty = True
        self._orphan_cache = None

    # -- queries --------------------------------------------------------

    def diagnostics(
        self, passes: Optional[Iterable[str]] = None
    ) -> List[Diagnostic]:
        """Solved, sorted diagnostics for the selected passes."""
        selected = self._select(passes)
        out: List[Diagnostic] = []
        with self.catalog._lock:
            # Compatibility assertions arrive outside the event stream.
            asserted = self.catalog.versions.assertion_count
            if asserted != self._assertions_seen:
                self._assertions_seen = asserted
                self.invalidate()
            for state in selected:
                self._ensure_solved(state)
                for cache in state.reports:
                    for report in cache.values():
                        out.extend(report)
                if "VDG612" in state.pass_.codes:
                    out.extend(self._orphans())
        out.sort(key=Diagnostic.sort_key)
        return out

    def _select(
        self, passes: Optional[Iterable[str]]
    ) -> List[_PassState]:
        if passes is None:
            return list(self._states.values())
        selected = []
        for name in passes:
            if name not in self._states:
                raise KeyError(f"unknown analysis pass {name!r}")
            selected.append(self._states[name])
        return selected

    def _orphans(self) -> Tuple[Diagnostic, ...]:
        if self._orphan_cache is None:
            self._orphan_cache = orphan_invocation_diagnostics(self.model)
        return self._orphan_cache

    def _ensure_solved(self, state: _PassState) -> None:
        if state.solved and not any(state.dirty):
            return
        graph = self.model.graph
        live = members(graph)
        self._solves += 1
        pass_ = state.pass_
        mode = "incremental" if state.solved else "full"
        with self.obs.span(
            "analysis.solve", analysis=pass_.name, mode=mode
        ) as span:
            if not state.solved:
                result = solve(
                    pass_, graph, state.facts, self.model, None
                )
                report_names = live
                for cache in state.reports:
                    cache.clear()
            else:
                result = solve(
                    pass_, graph, state.facts, self.model, state.dirty
                )
                report_names = result.report
            for names in state.dirty:
                names.clear()
            state.solved = True
            state.stats = result.stats
            reported = 0
            for names, alive, cache, reporter in zip(
                report_names,
                live,
                state.reports,
                (pass_.report_dataset, pass_.report_derivation),
            ):
                if reporter is None:
                    continue
                reported += len(names)
                for name in names:
                    report = (
                        reporter(name, graph, state.facts, self.model)
                        if name in alive
                        else ()
                    )
                    if report:
                        cache[name] = tuple(report)
                    else:
                        cache.pop(name, None)
            if self.obs.enabled:
                span.set("nodes", len(graph))
                span.set("visited", result.stats.visited)
                span.set("reported", reported)
                self.obs.count(
                    "analysis.incremental.solves",
                    help="dataflow solves",
                    analysis=pass_.name,
                    mode=mode,
                )

    def lint_context(self) -> AnalysisContext:
        """A live AnalysisContext equivalent to a cold catalog lint.

        Built from catalog objects (no VDL export, no reparse), so all
        spans are line 0.
        """
        with self.catalog._lock:
            if self._ctx is None or self._ctx_dirty:
                model = self.model
                graph = self.catalog.derivation_graph()
                dvs = [
                    _dv_info(graph.derivation(name))
                    for name in graph.derivation_names()
                ]
                trs = {
                    name: list(infos)
                    for name, infos in sorted(model._tr_table().items())
                }
                self._ctx = AnalysisContext.from_entities(
                    file=self.file,
                    catalog=self.catalog,
                    trs=trs,
                    dvs=dvs,
                )
                self._ctx_dirty = False
            return self._ctx

    def stats(self) -> Dict[str, Any]:
        """Counters for benchmarks and ``repro analyze --stats``."""
        per_pass = {}
        for name, state in self._states.items():
            per_pass[name] = {
                "solved": state.solved,
                "dirty": len(state.dirty),
                "mode": state.stats.mode,
                "seeds": state.stats.seeds,
                "visited": state.stats.visited,
                "changed": state.stats.changed,
                "reset_cone": state.stats.reset_cone,
            }
        return {
            "file": self.file,
            "events": self._events,
            "solves": self._solves,
            "nodes": self._sizes[0],
            "derivations": self._sizes[1],
            "passes": per_pass,
        }
