"""The shipped dataflow analyses: staleness, dead data, types, races.

Each pass runs on the generic engine in
:mod:`repro.analysis.dataflow` against a live
:class:`~repro.analysis.incremental.GraphModel`.  Diagnostic codes:

* ``VDG601``/``VDG602`` — staleness: a replica's recipe (derivation +
  transformation, recorded at execution time) no longer matches the
  catalog, directly (601) or through a stale upstream input (602);
* ``VDG611``/``VDG612`` — dead data: replicas no live derivation
  target needs (611) and invocations whose derivation is gone (612);
* ``VDG621`` — interprocedural type-flow: a dataset bound to an
  *untyped* surface formal that flows into a *typed* formal inside a
  compound body with no conforming inferred type;
* ``VDG631`` — interprocedural output conflicts: two derivations (or
  one, twice) writing the same LFN once compound bodies are expanded,
  including literal internal LFNs invisible to the surface race rule
  ``VDG201``.

All spans are line 0 at the analyzer's synthetic file: these analyses
judge the *catalog*, not a source text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Set, Tuple

from repro.analysis.dataflow import DataflowPass, PerKind
from repro.analysis.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.provenance.graph import DerivationGraph

#: Staleness lattice: fresh < stale-via-upstream < stale-at-root.
FRESH, INHERITED, ROOT = 0, 1, 2

#: How a derivation writes an LFN: a surface actual or a write that
#: only appears once compound bodies are expanded.
SURFACE, INTERNAL = "surface", "internal"

_OUT = ("output", "inout")
_IN = ("input", "inout")


def _type_names(members: Iterable[Any]) -> str:
    return ", ".join(sorted(str(m) for m in members))


class StalenessPass(DataflowPass):
    """Forward propagation of recipe drift to materialized replicas."""

    name = "staleness"
    direction = "forward"
    codes = ("VDG601", "VDG602")
    #: Dataset reports name the stale *input of the producing
    #: derivation*, i.e. read facts two dependency hops back.
    report_hops = 2
    bottom = FRESH

    def full_seeds(self, graph: "DerivationGraph", model: Any) -> PerKind:
        # Only a derivation that ran can be stale at the root.
        return PerKind((), model.executed())

    def full_report(
        self, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> PerKind:
        # Only a stale dataset is reported.
        return PerKind(facts.datasets, ())

    def transfer_dataset(
        self, lfn: str, producers: Iterable[str], facts: PerKind, model: Any
    ) -> int:
        stale = facts.derivations
        for name in producers:
            if stale.get(name):
                return INHERITED
        return FRESH

    def transfer_derivation(
        self, name: str, inputs: Iterable[str], facts: PerKind, model: Any
    ) -> int:
        if model.root_dirty(name) is not None:
            return ROOT
        stale = facts.datasets
        for lfn in inputs:
            if stale.get(lfn):
                return INHERITED
        return FRESH

    def subsumes(self, new: Any, old: Any) -> bool:
        return new >= old

    def report_dataset(
        self, lfn: str, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> Tuple[Diagnostic, ...]:
        if not facts.datasets.get(lfn) or not model.is_materialized(lfn):
            return ()
        stale = facts.derivations
        producers = sorted(graph.producer_names(lfn))
        root = next((p for p in producers if stale.get(p) == ROOT), None)
        if root is not None:
            message = (
                f"replicas of {lfn!r} are stale: "
                f"{model.root_dirty(root)} "
                f"(producing derivation {root!r})"
            )
            code = "VDG601"
        else:
            stale_dv = next((p for p in producers if stale.get(p)), None)
            if stale_dv is None:
                return ()
            stale_input = next(
                (
                    i
                    for i in sorted(graph.input_names(stale_dv))
                    if facts.datasets.get(i)
                ),
                "<unknown>",
            )
            message = (
                f"replicas of {lfn!r} are stale: input "
                f"{stale_input!r} of producing derivation "
                f"{stale_dv!r} is stale upstream"
            )
            code = "VDG602"
        return (
            Diagnostic(
                code=code,
                severity=Severity.WARNING,
                message=message,
                span=model.span(),
                obj=lfn,
                rule=self.name,
            ),
        )


class DeadDataPass(DataflowPass):
    """Backward liveness: which replicas does any live target need?

    A dataset is *needed* when it is a sink (no consumers — someone may
    yet ask for it) or when some consuming derivation is *pending*.  A
    derivation is pending when one of its outputs is needed and not yet
    materialized.  Replicas of un-needed datasets are GC candidates:
    every product derivable from them already exists.
    """

    name = "dead-data"
    direction = "backward"
    codes = ("VDG611", "VDG612")
    bottom = False

    def full_seeds(self, graph: "DerivationGraph", model: Any) -> PerKind:
        # Need starts at the sinks.  On a graph with nothing
        # materialized it reaches every node: this pass stays dense
        # there, because every node is needed.
        return PerKind(graph.sink_datasets(), ())

    def full_report(
        self, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> PerKind:
        # Only a materialized dataset can be a garbage-collection
        # candidate.
        return PerKind(model.maybe_materialized(), ())

    def transfer_dataset(
        self, lfn: str, consumers: Iterable[str], facts: PerKind, model: Any
    ) -> bool:
        if not consumers:
            return True  # a sink: always a live target
        pending = facts.derivations
        for name in consumers:
            if pending.get(name):
                return True
        return False

    def transfer_derivation(
        self, name: str, outputs: Iterable[str], facts: PerKind, model: Any
    ) -> bool:
        # Pending iff some needed output lacks a replica.
        needed = facts.datasets
        for lfn in outputs:
            if needed.get(lfn) and not model.is_materialized(lfn):
                return True
        return False

    def subsumes(self, new: Any, old: Any) -> bool:
        return bool(new) or not bool(old)

    def report_dataset(
        self, lfn: str, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> Tuple[Diagnostic, ...]:
        if facts.datasets.get(lfn) or not model.is_materialized(lfn):
            return ()
        return (
            Diagnostic(
                code="VDG611",
                severity=Severity.INFO,
                message=(
                    f"replicas of {lfn!r} are garbage-collection "
                    f"candidates: every downstream product is already "
                    f"materialized"
                ),
                span=model.span(),
                obj=lfn,
                rule=self.name,
            ),
        )


class TypeFlowPass(DataflowPass):
    """Interprocedural type inference through compound bodies.

    The per-dataset fact is ``(inferred_members, unknown)``: the set of
    :class:`~repro.core.types.DatasetType` members any (deeply
    expanded) producer can emit, plus an *unknown* flag set when some
    producer is untyped all the way down.  Derivations carry no fact.
    Reports fire on derivations whose dataset actuals are bound to
    surface-untyped formals that feed typed formals inside compound
    bodies (``VDG621``) — the mismatches the surface rule ``VDG105``
    cannot see.  A fact with no member is bottom whatever its flag:
    reports stay silent on it, and nothing propagates it.
    """

    name = "type-flow"
    direction = "forward"
    codes = ("VDG621",)
    bottom = (frozenset(), False)

    def __init__(self) -> None:
        #: One object per distinct fact: datasets share a handful, and a
        #: fact is ~270 bytes.
        self._facts: Dict[Any, Any] = {}

    def full_seeds(self, graph: "DerivationGraph", model: Any) -> PerKind:
        # A member comes from a declared type or a typed producer.
        producers, _, _, outputs = graph.adjacency()
        datasets = {lfn for lfn in model.typed_datasets() if lfn in producers}
        for dvn in model.callers("writes_types"):
            datasets.update(outputs.get(dvn, ()))
        return PerKind(datasets, ())

    def full_report(
        self, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> PerKind:
        return PerKind((), model.callers("requires_types"))

    def transfer_dataset(
        self, lfn: str, producers: Iterable[str], facts: PerKind, model: Any
    ) -> Any:
        members: Set[Any] = set()
        unknown = False
        declared = model.dataset_declared_type(lfn)
        if declared is not None:
            members.add(declared)
        for dvn in producers:
            dv = model.derivation(dvn)
            target = dv.transformation.vdl_text()
            for formal, arg in dv.dataset_args():
                if arg.dataset != lfn or arg.direction not in _OUT:
                    continue
                deep = model.deep_output_types(target, formal)
                if deep is None:
                    unknown = True
                else:
                    members.update(deep)
        if not members:
            return self.bottom
        fact = (frozenset(members), unknown)
        return self._facts.setdefault(fact, fact)

    def subsumes(self, new: Any, old: Any) -> bool:
        return new[0] >= old[0] and new[1] >= old[1]

    def report_derivation(
        self, dvn: str, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        dv = model.derivation(dvn)
        target = dv.transformation.vdl_text()
        for formal, arg in dv.dataset_args():
            if arg.direction not in _IN:
                continue
            requirements = model.deep_requirements(target, formal)
            if not requirements:
                continue
            fact = facts.datasets.get(arg.dataset)
            if fact is None:
                continue
            members, unknown = fact
            if unknown or not members:
                continue  # may-analysis: stay silent when uncertain
            for path, required in requirements:
                if any(
                    model.types.conforms_to_any(m, required)
                    for m in members
                ):
                    continue
                out.append(
                    Diagnostic(
                        code="VDG621",
                        severity=Severity.ERROR,
                        message=(
                            f"DV {dvn!r} binds {arg.dataset!r} to untyped "
                            f"formal {formal!r}, but it flows into {path!r} "
                            f"expecting {_type_names(required)}; inferred "
                            f"types: {_type_names(members)}"
                        ),
                        span=model.span(),
                        obj=dvn,
                        rule=self.name,
                    )
                )
        return out


class OutputConflictPass(DataflowPass):
    """Interprocedural upgrade of the static output-race rule.

    The per-derivation fact is its *expanded write multiset*: surface
    output actuals plus every literal LFN (and duplicated formal sink)
    written inside nested compound bodies.  Only a derivation whose
    target writes internally keeps one; every other writes on the
    surface only, which the graph already records, so its fact is
    bottom.  Datasets carry no fact.  A shared-LFN index inside the
    model relates writers that are not graph-adjacent; the
    :meth:`on_fact_change` and :meth:`on_relink` hooks keep
    co-writers' reports fresh.  ``VDG201`` already covers pure
    surface/surface duplicates, so those pairs are skipped here.
    """

    name = "output-conflict"
    direction = "local"
    codes = ("VDG631",)
    bottom = ()

    def full_seeds(self, graph: "DerivationGraph", model: Any) -> PerKind:
        model.clear_writer_index()
        return PerKind((), model.callers("writes_internally"))

    def full_report(
        self, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> PerKind:
        # Every pair has an internal writer in it.
        return PerKind((), model.conflict_report())

    def transfer_derivation(
        self, dvn: str, _sources: Iterable[str], facts: PerKind, model: Any
    ) -> Tuple[Tuple[str, str], ...]:
        if not model.writes_internally(dvn):
            return ()
        return tuple(sorted(model.expanded_writes(dvn)))

    def on_fact_change(
        self, dvn: str, old: Any, new: Any, model: Any
    ) -> Iterable[str]:
        return model.update_writer_index(dvn, old or (), new or ())

    def on_relink(self, lfns: Iterable[str], model: Any) -> Iterable[str]:
        # A surface-only writer came or went: its internal co-writers
        # may pair with it.
        return model.internal_writers(lfns)

    def report_derivation(
        self, dvn: str, graph: "DerivationGraph", facts: PerKind, model: Any
    ) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        writes = facts.derivations.get(dvn) or model.expanded_writes(dvn)
        vias_by_lfn: Dict[str, List[str]] = {}
        for lfn, via in writes:
            vias_by_lfn.setdefault(lfn, []).append(via)
        for lfn in sorted(vias_by_lfn):
            own = vias_by_lfn[lfn]
            if len(own) > 1 and any(v == INTERNAL for v in own):
                out.append(
                    Diagnostic(
                        code="VDG631",
                        severity=Severity.ERROR,
                        message=(
                            f"derivation {dvn!r} writes {lfn!r} more than "
                            f"once through compound internals"
                        ),
                        span=model.span(),
                        obj=dvn,
                        rule=self.name,
                    )
                )
            for other, other_vias in sorted(
                model.writers_of(lfn).items()
            ):
                if other >= dvn:
                    continue  # report each pair once, on the later name
                if set(own) == {SURFACE} and set(other_vias) == {SURFACE}:
                    continue  # VDG201's surface/surface territory
                out.append(
                    Diagnostic(
                        code="VDG631",
                        severity=Severity.ERROR,
                        message=(
                            f"derivations {other!r} and {dvn!r} both write "
                            f"{lfn!r} through compound internals"
                        ),
                        span=model.span(),
                        obj=dvn,
                        rule=self.name,
                    )
                )
        return out


def default_passes() -> Tuple[DataflowPass, ...]:
    """Fresh instances of the four shipped analyses."""
    return (
        StalenessPass(),
        DeadDataPass(),
        TypeFlowPass(),
        OutputConflictPass(),
    )


def orphan_invocation_diagnostics(
    model: Any,
) -> Tuple[Diagnostic, ...]:
    """``VDG612`` for invocations whose derivation left the catalog.

    Not a graph pass — orphans by definition have no derivation node —
    but reported alongside :class:`DeadDataPass` results.
    """
    diags = []
    for inv_id, dvn in sorted(model.orphan_invocations()):
        diags.append(
            Diagnostic(
                code="VDG612",
                severity=Severity.INFO,
                message=(
                    f"invocation {inv_id!r} records derivation {dvn!r}, "
                    f"which is no longer in the catalog"
                ),
                span=model.span(),
                obj=inv_id,
                rule="dead-data",
            )
        )
    return tuple(diags)
