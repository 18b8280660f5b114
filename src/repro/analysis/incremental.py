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
* once the catalog is first linted, the lint rules' per-node reports
  (:mod:`repro.analysis.rules`, run as a report-only local pass) and
  the cycles found, re-checked only where the catalog changed, so
  ``repro lint --incremental`` needs no export-VDL/reparse round trip.

Mutation handling is O(degree) per event; querying pays only for the
cone the mutations actually influence.  A cold query after
:meth:`rebuild` is a full fixpoint solve — by construction the two
paths produce byte-identical diagnostics (property-tested in
``tests/analysis/test_incremental_property.py``).
"""

from __future__ import annotations

import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.context import (
    ActualInfo,
    AnalysisContext,
    DVInfo,
    TRInfo,
    pick_declaration,
    split_target,
)
from repro.analysis.dataflow import (
    DERIVATIONS,
    DataflowPass,
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
from repro.analysis.registry import RULES
from repro.analysis.rules import (
    Program,
    check_dataset,
    check_derivation,
    check_transformation,
    cycles_through,
    find_cycles,
)
from repro.catalog.payloads import attribute, dataset_type, field
from repro.core.derivation import DatasetArg, Derivation
from repro.core.recipe import RECIPE_DIGEST_ATTR, TR_VERSION_ATTR, recipe_digest
from repro.core.types import DatasetType
from repro.core.versioning import Version
from repro.observability.instrument import NULL, Instrumentation
from repro.vdl.ast import FormalRefNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.provenance.graph import DerivationGraph

_OUT = ("output", "inout")
_IN = ("input", "inout")

#: ``(start_time, status, tr_version, recipe_digest)`` per invocation.
_InvMeta = Tuple[float, str, Optional[str], Optional[str]]


class _Traits(NamedTuple):
    """What a full solve asks of a transformation target."""

    #: A formal has deep output types: its outputs get type-flow facts.
    writes_types: bool
    #: An untyped formal feeds typed ones inside: type-flow reports.
    requires_types: bool
    #: A formal is written more than once, or a literal LFN is
    #: written, inside the body: output-conflict facts.
    writes_internally: bool


#: The vias of a writer the graph lists and the writer index does not.
_SURFACE_ONLY = (SURFACE,)


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
        self._catalog = weakref.ref(catalog)
        self.file = file
        self._indexes = catalog._indexes
        self._span = Span(file=file, line=0)
        #: Derivation name -> invocation id -> metadata.
        self._invs_by_dv: Dict[str, Dict[str, _InvMeta]] = {}
        # -- memoized derived state --
        self._tr_table_cache: Optional[Dict[str, List[TRInfo]]] = None
        #: Callee name -> names of the transformations calling it.
        self._tr_callers: Optional[Dict[str, Set[str]]] = None
        self._tr_objects: Dict[str, Any] = {}
        self._deep_out: Dict[Tuple[str, str], Any] = {}
        self._deep_req: Dict[Tuple[str, str], Any] = {}
        self._sinks: Dict[str, Tuple[Dict[str, int], Tuple[str, ...]]] = {}
        self._traits: Dict[str, _Traits] = {}
        self._recipe_cache: Dict[str, Any] = {}
        #: LFN -> declared type, for the datasets at rest declaring one.
        self._ds_types: Dict[str, DatasetType] = {}
        #: Datasets whose record changed since it was last read.
        self._ds_unread: Set[str] = set()
        #: LFN -> ((writer, vias), ...) for the derivations whose
        #: target writes internally; every other writer writes on the
        #: surface only, and the graph lists it.  A tuple, as nearly
        #: every LFN has one writer; the vias tuples are shared
        #: (``_vias``).
        self._conflict_writers: Dict[str, Tuple[Tuple[str, Any], ...]] = {}
        self._vias: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # -- trivia the passes need ---------------------------------------

    @property
    def catalog(self) -> Any:
        """The catalog modelled (held weakly, as the analyzer holds it)."""
        return self._catalog()

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

    def is_materialized(self, lfn: str) -> bool:
        return self.catalog.is_materialized(lfn)

    def dv_target(self, name: str) -> str:
        return self.derivation(name).transformation.vdl_text()

    def dataset_declared_type(self, lfn: str) -> Optional[DatasetType]:
        """The record's dataset type when concretely declared.

        Reads the stored object at rest rather than
        ``catalog.get_dataset`` (the accessor's isolation copy would
        dominate a scan at 10^5 nodes), and only when its record
        changed since it was last read.
        """
        if lfn in self._ds_unread:
            self._ds_unread.discard(lfn)
            self.prime_dataset_type(lfn, self.catalog._at_rest("dataset", lfn))
        return self._ds_types.get(lfn)

    def typed_datasets(self) -> Dict[str, DatasetType]:
        """LFN -> declared type of every dataset declaring one."""
        for lfn in list(self._ds_unread):
            self.dataset_declared_type(lfn)
        return self._ds_types

    def prime_dataset_type(self, lfn: str, entry: Any) -> None:
        """Note the declared type of a dataset at rest (a record or a
        loaded document; None when absent)."""
        dtype = dataset_type(entry) if entry is not None else None
        if dtype is None or dtype.is_any():
            self._ds_types.pop(lfn, None)
        else:
            self._ds_types[lfn] = dtype

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

    def index_invocation(self, invocation_id: str, entry: Any) -> None:
        """Index an invocation at rest (a record or a loaded document)."""
        meta: _InvMeta = (
            float(field(entry, "start_time") or 0.0),
            field(entry, "status") or "",
            attribute(entry, TR_VERSION_ATTR),
            attribute(entry, RECIPE_DIGEST_ATTR),
        )
        dvn = field(entry, "derivation_name")
        self._invs_by_dv.setdefault(dvn, {})[invocation_id] = meta

    def unindex_invocation(self, invocation_id: str, dvn: str) -> None:
        group = self._invs_by_dv.get(dvn)
        if group is not None:
            group.pop(invocation_id, None)
            if not group:
                del self._invs_by_dv[dvn]

    def invalidate_dataset(self, lfn: str) -> None:
        self._ds_unread.add(lfn)

    def invalidate_transformations(self, base_name: str) -> PerKind:
        """A TR (version) changed: drop summaries, seed dependent DVs."""
        affected = self._dependent_tr_names(base_name)
        self._tr_table_cache = None
        self._tr_callers = None
        self._tr_objects.clear()
        self._deep_out.clear()
        self._deep_req.clear()
        self._sinks.clear()
        self._traits.clear()
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
        callers = self._callers_of()
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

    def _callers_of(self) -> Dict[str, Set[str]]:
        """Callee name -> the transformations calling it, memoized."""
        if self._tr_callers is None:
            callers: Dict[str, Set[str]] = {}
            for infos in self._tr_table().values():
                for info in infos:
                    for call in info.calls:
                        callee = split_target(call.target)[0]
                        callers.setdefault(callee, set()).add(info.name)
            self._tr_callers = callers
        return self._tr_callers

    def is_called(self, name: str) -> bool:
        """Whether a local derivation or a compound call targets ``name``."""
        # The index goes by reference name, remote targets included.
        for dvn in self._indexes.by_transformation.get(name, ()):
            if self.dv_target(dvn) == name:
                return True
        return name in self._callers_of()

    def resolve_trinfo(self, target: str) -> Optional[TRInfo]:
        """TRInfo for a DV/call target; None for remote or unknown."""
        if not target or target.startswith("vdp://"):
            return None
        name, version = split_target(target)
        infos = self._tr_table().get(name)
        return pick_declaration(infos, version) if infos else None

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

    # -- where a full solve starts ---------------------------------------

    def traits(self, target: str) -> _Traits:
        """What ``target``'s deeply expanded body declares, memoized."""
        traits = self._traits.get(target)
        if traits is None:
            info = self.resolve_trinfo(target)
            formals = [
                f.name for f in (info.formals if info else ()) if not f.is_string
            ]
            counts, literals = self._write_sinks(target)
            traits = self._traits[target] = _Traits(
                writes_types=any(
                    self.deep_output_types(target, f) is not None
                    for f in formals
                ),
                requires_types=any(
                    self.deep_requirements(target, f) for f in formals
                ),
                writes_internally=bool(literals)
                or any(count > 1 for count in counts.values()),
            )
        return traits

    def callers(self, trait: str) -> Set[str]:
        """Derivations whose target has ``trait``, a :class:`_Traits` field.

        Judged by reference name, as the catalog indexes callers: a
        remote target of the same name is counted in, which only adds
        a node whose fact and report stay at bottom.
        """
        names: Set[str] = set()
        for target, callers in self._indexes.by_transformation.items():
            if callers and getattr(self.traits(target), trait):
                names.update(callers)
        return names

    def executed(self) -> List[str]:
        """Live derivations with recorded invocations."""
        live = members(self.graph).derivations
        return [dvn for dvn in self._invs_by_dv if dvn in live]

    def maybe_materialized(self) -> Set[str]:
        """Every LFN that may be materialized: each one with a replica
        entry (possibly none left), and each source, whose record may
        declare a concrete descriptor."""
        return self.graph.source_datasets().union(self._indexes.replicas_of)

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
        # The graph's decoded derivation, digested as an executor
        # stamps it (``stamp_recipe``): no second read of the store.
        dv = self.derivation(dvn)
        tr = self.resolve_transformation(dv.transformation.vdl_text())
        result: Optional[Tuple[str, str]] = None
        if tr is not None:
            result = (tr.version, recipe_digest(dv.to_dict(), tr.to_dict()))
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

    def writes_internally(self, dvn: str) -> bool:
        return self.traits(self.dv_target(dvn)).writes_internally

    def writers_of(self, lfn: str) -> Dict[str, Tuple[str, ...]]:
        """Writer -> vias of ``lfn``: the index's, then the graph's."""
        writers = dict.fromkeys(self.graph.producer_names(lfn), _SURFACE_ONLY)
        writers.update(self._conflict_writers.get(lfn, ()))
        return writers

    def internal_writers(self, lfns: Iterable[str]) -> Set[str]:
        """The indexed writers of any of ``lfns``."""
        writers = self._conflict_writers
        return {dvn for lfn in lfns for dvn, _ in writers.get(lfn, ())}

    def conflict_report(self) -> Set[str]:
        """The indexed writers and every surface writer of their LFNs."""
        producers = self.graph.producer_names
        names: Set[str] = set()
        for lfn, writers in self._conflict_writers.items():
            names.update(dvn for dvn, _ in writers)
            names.update(producers(lfn))
        return names

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
        writers = self._conflict_writers
        for lfn in set(old_map) - set(new_map):
            rest = _without(writers.get(lfn, ()), dvn)
            if rest:
                writers[lfn] = rest
            else:
                writers.pop(lfn, None)
        for lfn, vias in new_map.items():
            shared = tuple(sorted(vias))
            shared = self._vias.setdefault(shared, shared)
            writers[lfn] = _without(writers.get(lfn, ()), dvn) + (
                (dvn, shared),
            )
        extra: Set[str] = set()
        for lfn in affected:
            extra.update(self.writers_of(lfn))
        extra.discard(dvn)
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


def _without(writers: Tuple[Tuple[str, Any], ...], dvn: str) -> tuple:
    """A writer-index entry with ``dvn``'s pair taken out."""
    return tuple(pair for pair in writers if pair[0] != dvn)


def _dv_info(dv: Derivation) -> DVInfo:
    """Normalize a catalog derivation into a DVInfo (line 0)."""
    actuals = [
        ActualInfo(formal, value.dataset, value.direction)
        if isinstance(value, DatasetArg)
        else ActualInfo(formal)
        for formal, value in dv.actuals.items()
    ]
    return DVInfo(
        name=dv.name, target=dv.transformation.vdl_text(), actuals=actuals
    )


class _LiveProgram(Program):
    """The catalog as the lint checks read it: its own graph, keyed by
    derivation name, and the model's transformation table.  Made per
    lint query; each derivation is normalized once per query."""

    def __init__(self, model: GraphModel, file: str) -> None:
        catalog = model.catalog
        super().__init__(
            file, model.graph, catalog.types, catalog.versions, catalog
        )
        self.model = model
        self._dvs: Dict[str, DVInfo] = {}

    def dv(self, key: str) -> DVInfo:
        dv = self._dvs.get(key)
        if dv is None:
            dv = self._dvs[key] = _dv_info(self.model.derivation(key))
        return dv

    def resolve_tr(self, target: str) -> Optional[TRInfo]:
        return self.model.resolve_trinfo(target)

    def declarations(self, name: str) -> List[TRInfo]:
        return self.model._tr_table().get(name, [])

    def is_called(self, name: str) -> bool:
        return self.model.is_called(name)

    def declared_type(self, lfn: str) -> Optional[DatasetType]:
        return self.model.dataset_declared_type(lfn)


class LintPass(DataflowPass):
    """The lint rules' derivation and dataset checks as a report-only
    local pass: no facts, and a node is re-checked when it is dirty."""

    name = "lint"
    direction = "local"
    codes = tuple(code for rule in RULES for code in rule.codes)

    def report_dataset(
        self, lfn: str, graph: DerivationGraph, facts: PerKind, model: Any
    ) -> Tuple[Diagnostic, ...]:
        return tuple(check_dataset(lfn, model))

    def report_derivation(
        self, dvn: str, graph: DerivationGraph, facts: PerKind, model: Any
    ) -> Tuple[Diagnostic, ...]:
        return tuple(check_derivation(dvn, model))


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


class _LintState:
    """What the live lint keeps between queries, for one file name."""

    def __init__(self, file: str) -> None:
        self.file = file
        #: Derivation and dataset reports, kept by the engine.
        self.nodes = _PassState(LintPass())
        #: Transformation name -> its non-empty report.  Transformations
        #: are few: all are re-checked after a derivation or
        #: transformation event (which may start or end a call).
        self.trs: Dict[str, Tuple[Diagnostic, ...]] = {}
        self.trs_dirty = True
        #: Cycle members in name order -> their VDG301, and derivations
        #: a cycle may now run through.
        self.cycles: Dict[Tuple[str, ...], Diagnostic] = {}
        self.cycles_dirty: Set[str] = set()


class IncrementalAnalyzer:
    """Event-subscribed façade over the model, passes, and lint view."""

    def __init__(
        self,
        catalog: Any,
        file: str = "<catalog>",
        passes: Optional[Iterable[Any]] = None,
        obs: Instrumentation = NULL,
    ) -> None:
        # Weak: a catalog owns its live analyzer, and holds the bound
        # method any other analyzer subscribes weakly too.
        self._catalog = weakref.ref(catalog)
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
        #: Made by the first :meth:`lint`; until then nothing lint-side
        #: is kept or marked.
        self._lint: Optional[_LintState] = None
        self._orphan_cache: Optional[Tuple[Diagnostic, ...]] = None
        self.rebuild()
        catalog.subscribe(self.on_event)

    @property
    def catalog(self) -> Any:
        """The catalog analyzed."""
        return self._catalog()

    def close(self) -> None:
        """Detach from the catalog's event stream."""
        catalog = self.catalog
        if catalog._analyzer is self:
            catalog._analyzer = None
        else:
            catalog.unsubscribe(self.on_event)

    # -- event intake ---------------------------------------------------

    def on_event(self, event: str, kind: str, key: str) -> None:
        """Catalog mutation hook: update the model, mark dirt, return.

        The indexes heard this event first, so the graph already shows
        its outcome; what it unlinked is no longer readable there and
        arrives in ``touched`` (see :class:`CatalogIndexes`).  Only
        solved state is marked: an unsolved pass starts from scratch.
        """
        self._events += 1
        model = self.model
        touched = model._indexes.touched
        solved = [s for s in self._states.values() if s.solved]
        lint = self._lint
        seeds = name_sets()
        if kind == "derivation":
            live = members(model.graph)
            forget = solved + [lint.nodes] if lint is not None else solved
            for which, names in enumerate((touched, (key,))):
                for name in names:
                    if name in live[which]:
                        seeds[which].add(name)
                    else:
                        self._forget_node(forget, which, name)
            self._sizes = (len(model.graph), len(live.derivations))
            model.forget_recipe(key)
            for state in solved:
                relink = state.pass_.on_relink
                if relink is not None:
                    state.dirty.derivations.update(relink(touched, model))
            self._orphan_cache = None
        elif kind == "replica":
            seeds = model.around(datasets=touched)
        elif kind == "transformation":
            base = split_target(key)[0]
            seeds = model.invalidate_transformations(base)
        elif kind == "invocation":
            for dvn in touched:
                model.unindex_invocation(key, dvn)
            if event == "put":
                entry = self.catalog._at_rest("invocation", key)
                if entry is not None:
                    model.index_invocation(key, entry)
            seeds = model.around(derivations=touched)
            self._orphan_cache = None
        elif kind == "dataset":
            model.invalidate_dataset(key)
            seeds = model.around(datasets=(key,))
        for state in solved:
            for dirty, names in zip(state.dirty, seeds):
                dirty |= names
        if lint is not None and kind != "invocation":
            self._mark_lint(lint, kind, key, seeds)

    def _mark_lint(
        self, lint: _LintState, kind: str, key: str, seeds: PerKind
    ) -> None:
        """Mark what an event may change in the lint's reports."""
        wide = seeds
        if kind in ("derivation", "transformation"):
            # What a changed writer may type (VDG105) is read by every
            # derivation using its datasets; and a call may start or end.
            wide = self.model.around(datasets=seeds.datasets)
            lint.trs_dirty = True
        for dirty, names, more in zip(lint.nodes.dirty, seeds, wide):
            dirty |= names
            dirty |= more
        if kind == "derivation":
            lint.cycles_dirty.add(key)

    def _forget_node(
        self, states: List[_PassState], kind: int, name: str
    ) -> None:
        """Drop per-node state for a node that left the graph."""
        for state in states:
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
            # Bulk scans of the objects at rest (records, or documents
            # a document backend loads): read here, never retained,
            # and nothing is decoded or copied.
            for inv_id, entry in catalog._scan("invocation"):
                model.index_invocation(inv_id, entry)
            for lfn, entry in catalog._scan("dataset"):
                model.prime_dataset_type(lfn, entry)
            graph = model.graph
            self._sizes = (len(graph), len(members(graph).derivations))
            for state in self._states.values():
                for table in (*state.facts, *state.reports, *state.dirty):
                    table.clear()
                state.solved = False
            self._lint = None
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
        self._lint = None
        self._orphan_cache = None

    # -- queries --------------------------------------------------------

    def diagnostics(
        self, passes: Optional[Iterable[str]] = None
    ) -> List[Diagnostic]:
        """Solved, sorted diagnostics for the selected passes."""
        selected = self._select(passes)
        out: List[Diagnostic] = []
        with self.catalog._lock:
            self._notice_assertions()
            for state in selected:
                self._ensure_solved(state, self.model)
                for cache in state.reports:
                    for report in cache.values():
                        out.extend(report)
                if "VDG612" in state.pass_.codes:
                    out.extend(self._orphans())
        out.sort(key=Diagnostic.sort_key)
        return out

    def lint(self, file: str) -> List[Diagnostic]:
        """The lint rules' sorted diagnostics, spans at ``file``.

        The first query checks every node; later ones re-check only
        the nodes changed since, and the cycles that may run through
        them.  A query naming another file than the last starts over.
        """
        with self.catalog._lock:
            self._notice_assertions()
            state = self._lint
            if state is None or state.file != file:
                state = self._lint = _LintState(file)
            program = _LiveProgram(self.model, file)
            cold = not state.nodes.solved
            self._ensure_solved(state.nodes, program)
            if state.trs_dirty:
                state.trs = {}
                for name in self.model._tr_table():
                    report = tuple(check_transformation(name, program))
                    if report:
                        state.trs[name] = report
                state.trs_dirty = False
            if cold or state.cycles_dirty:
                live = members(self.model.graph).derivations
                if cold:
                    state.cycles = find_cycles(live, program)
                else:
                    # A new cycle runs through a changed derivation; a
                    # broken one had members reported last time.
                    through = state.cycles_dirty.union(*state.cycles)
                    state.cycles = cycles_through(
                        [name for name in through if name in live], program
                    )
                state.cycles_dirty.clear()
            out = [
                diagnostic
                for reports in (*state.nodes.reports, state.trs)
                for report in reports.values()
                for diagnostic in report
            ]
            out.extend(state.cycles.values())
        out.sort(key=Diagnostic.sort_key)
        return out

    def _notice_assertions(self) -> None:
        """Compatibility assertions arrive outside the event stream."""
        asserted = self.catalog.versions.assertion_count
        if asserted != self._assertions_seen:
            self._assertions_seen = asserted
            self.invalidate()

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

    def _ensure_solved(self, state: _PassState, model: Any) -> None:
        """Bring ``state`` up to date; ``model`` is what its pass reads."""
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
                for cache in state.reports:
                    cache.clear()
            result = solve(
                pass_,
                graph,
                state.facts,
                model,
                state.dirty if state.solved else None,
            )
            for names in state.dirty:
                names.clear()
            state.solved = True
            state.stats = result.stats
            reported = 0
            for names, alive, cache, reporter in zip(
                result.report,
                live,
                state.reports,
                (pass_.report_dataset, pass_.report_derivation),
            ):
                if reporter is None:
                    continue
                reported += len(names)
                for name in names:
                    report = (
                        reporter(name, graph, state.facts, model)
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

    def stats(self) -> Dict[str, Any]:
        """Counters for benchmarks and ``repro analyze --stats``."""
        per_pass = {}
        for name, state in self._states.items():
            per_pass[name] = {
                "solved": state.solved,
                "dirty": sum(map(len, state.dirty)),
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
