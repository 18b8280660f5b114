"""Built-in lint rules, checked one node at a time.

The checks are what the one-pass :class:`~repro.vdl.semantics.Analyzer`
cannot (or deliberately does not) perform: signature conformance
across TR/DV pairs, static output races, cycles in the derivation
graph, dead code, and version-algebra checks.  Rule names and codes
live in :mod:`repro.analysis.registry`; the code table is documented in
``docs/LINTING.md``.

Each check reads one node of a :class:`Program` — one transformation
name with its declarations (:func:`check_transformation`), one
derivation (:func:`check_derivation`), or one logical file with its
producers and consumers (:func:`check_dataset`) — plus one query for
derivation cycles (:func:`find_cycles`, :func:`cycles_through`).  No
check indexes the whole program: relations come from the program's
derivation graph.  The linter builds a :class:`Program` over the
declarations it parsed and checks every node; the live analyzer builds
one over the catalog's own graph and re-checks only the nodes a
mutation touched.

Severity policy: findings that would make planning or execution fail
(or silently corrupt data, as output races do) are errors; likely
mistakes that still plan are warnings; stylistic/informational notes
(a dataset consumed but never produced may simply live on the grid
already) are info.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.analysis.context import Binding, DVInfo, TRInfo, split_target
from repro.analysis.diagnostics import Diagnostic, Severity, Span
from repro.analysis.registry import RULES
from repro.core.topology import dependency_counts, kahn_levels, reachable
from repro.core.types import DatasetType, TypeRegistry
from repro.core.versioning import Version, VersionRegistry
from repro.errors import CycleError, SchemaError
from repro.vdl.ast import FormalRefNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.base import VirtualDataCatalog
    from repro.provenance.graph import DerivationGraph

_OUT = ("output", "inout")
_IN = ("input", "inout")

#: The codes below error severity (see the policy above).
_SEVERITY = {
    "VDG203": Severity.WARNING,
    "VDG401": Severity.WARNING,
    "VDG402": Severity.WARNING,
    "VDG403": Severity.INFO,
    "VDG404": Severity.WARNING,
    "VDG502": Severity.WARNING,
}
_RULE = {code: rule.name for rule in RULES for code in rule.codes}


class Program:
    """What the checks read: one derivation graph and its declarations.

    Derivations are the graph's keys.  By default a key is the
    derivation's name, as in a catalog; source text, where names may
    repeat (VDG404), gives each declaration a key of its own and
    overrides the four key methods.  A subclass supplies the lookups;
    the relations the checks share are read off the graph here.
    """

    def __init__(
        self,
        file: str,
        graph: "DerivationGraph",
        types: TypeRegistry,
        versions: VersionRegistry,
        catalog: Optional["VirtualDataCatalog"],
    ) -> None:
        self.file = file
        self.graph = graph
        self.types = types
        self.versions = versions
        self.catalog = catalog
        self._lfn_types: dict[str, list[DatasetType]] = {}

    # -- keys ---------------------------------------------------------------

    def ordered(self, keys: Iterable[str]) -> list[str]:
        """``keys`` in program order."""
        return sorted(keys)

    def names_of(self, keys: Iterable[str]) -> set[str]:
        return set(keys)

    def keys_named(self, name: str) -> Sequence[str]:
        """The keys declaring derivation ``name``, in program order."""
        return (name,)

    def line_of(self, name: str) -> int:
        """The line of derivation ``name``'s last declaration."""
        return 0

    # -- lookups ------------------------------------------------------------

    def dv(self, key: str) -> DVInfo:
        """The declaration behind a key (the same object each call)."""
        raise NotImplementedError

    def resolve_tr(self, target: str) -> Optional[TRInfo]:
        raise NotImplementedError

    def declarations(self, name: str) -> Sequence[TRInfo]:
        """The declarations of transformation ``name``, oldest first."""
        raise NotImplementedError

    def is_called(self, name: str) -> bool:
        """Whether a derivation or a compound call targets ``name``."""
        raise NotImplementedError

    def declared_type(self, lfn: str) -> Optional[DatasetType]:
        """The catalog record's dataset type, when concretely declared."""
        raise NotImplementedError

    # -- relations ----------------------------------------------------------

    def bindings(self, lfn: str, writes: bool) -> list[Binding]:
        """The (derivation, actual) pairs writing or reading ``lfn``."""
        graph = self.graph
        keys = graph.producer_names(lfn) if writes else graph.consumer_names(lfn)
        directions = _OUT if writes else _IN
        return [
            (dv, actual)
            for dv in map(self.dv, self.ordered(keys))
            for actual in dv.actuals
            if actual.lfn == lfn and actual.direction in directions
        ]

    def is_materialized(self, lfn: str) -> bool:
        """Whether a backing catalog holds the LFN materialized."""
        return self.catalog is not None and self.catalog.is_materialized(lfn)

    def lfn_types(self, lfn: str) -> list[DatasetType]:
        """Plausible :class:`DatasetType`s of an LFN, statically inferred.

        The catalog's dataset record (when typed) is authoritative;
        otherwise every typed output formal the LFN is bound to
        contributes its union members.  An empty list means "nothing
        known" — type rules must then stay silent.
        """
        inferred = self._lfn_types.get(lfn)
        if inferred is not None:
            return inferred
        declared = self.declared_type(lfn)
        inferred = [declared] if declared is not None else []
        if declared is None:
            for dv, actual in self.bindings(lfn, writes=True):
                tr = self.resolve_tr(dv.target)
                formal = tr.formal(actual.name) if tr is not None else None
                if formal is None or formal.types is None:
                    continue
                for member in formal.types.members:
                    if member not in inferred:
                        inferred.append(member)
        self._lfn_types[lfn] = inferred
        return inferred

    def linked(self, name: str, forward: bool) -> set[str]:
        """Derivation names one dataset away from ``name``, downstream
        (``forward``) or upstream, ``name`` itself left out."""
        graph = self.graph
        ends = graph.output_names if forward else graph.input_names
        across = graph.consumer_names if forward else graph.producer_names
        keys: set[str] = set()
        for key in self.keys_named(name):
            for lfn in ends(key):
                keys.update(across(lfn))
        linked = self.names_of(keys)
        linked.discard(name)
        return linked

    def finding(self, code: str, message: str, line: int, obj: str) -> Diagnostic:
        return Diagnostic(
            code,
            _SEVERITY.get(code, Severity.ERROR),
            message,
            Span(file=self.file, line=line),
            obj,
            _RULE[code],
        )


def _at_line(line: int) -> str:
    """`` (line N)`` pointing back at a declaration; nothing when the
    declaration has no source line (a catalog's)."""
    return f" (line {line})" if line else ""


# -- transformations ----------------------------------------------------------


def check_transformation(name: str, program: Program) -> Iterator[Diagnostic]:
    """VDG001/002/106/202/401/402/501 for one transformation name."""
    decls = program.declarations(name)
    seen: dict[str, int] = {}
    for tr in decls:
        for line, message in tr.type_issues:
            yield program.finding("VDG106", f"TR {name!r}: {message}", line, name)
        if tr.version in seen:
            yield program.finding(
                "VDG001",
                f"transformation {name!r} version {tr.version} is "
                f"already declared at line {seen[tr.version]}",
                tr.line,
                name,
            )
        seen.setdefault(tr.version, tr.line)
        for call in tr.calls:
            if not call.target.startswith("vdp://") and (
                program.resolve_tr(call.target) is None
            ):
                yield program.finding(
                    "VDG002",
                    f"TR {name!r} calls unknown transformation {call.target!r}",
                    call.line or tr.line,
                    name,
                )
        yield from _check_compound_races(tr, program)
        yield from _check_unused_formals(tr, program)
        try:
            Version.parse(tr.version)
        except SchemaError:
            yield program.finding(
                "VDG501",
                f"TR {name!r} declares invalid version {tr.version!r}",
                tr.line,
                name,
            )
    if decls and not program.is_called(name):
        yield program.finding(
            "VDG402",
            f"transformation {name!r} is never the target of a "
            f"derivation or a compound call",
            decls[0].line,
            name,
        )


def _check_compound_races(tr: TRInfo, program: Program) -> Iterator[Diagnostic]:
    """VDG202: two calls in one compound body write the same sink.

    A *sink* is either a parent formal (bound by reference) or a literal
    LFN.  Callee formal directions come from the resolved signature;
    unresolvable callees are skipped (VDG002 reports those).
    """
    sinks: dict[str, tuple[str, int]] = {}
    for call in tr.calls:
        callee = program.resolve_tr(call.target)
        if callee is None:
            continue
        for name, value, line in call.bindings:
            callee_formal = callee.formal(name)
            if callee_formal is None or callee_formal.direction not in _OUT:
                continue
            sink = f"${value.name}" if isinstance(value, FormalRefNode) else value
            if sink not in sinks:
                sinks[sink] = (call.target, line or call.line)
                continue
            prev_target, prev_line = sinks[sink]
            yield program.finding(
                "VDG202",
                f"TR {tr.name!r}: calls to {call.target!r} and "
                f"{prev_target!r}{_at_line(prev_line)} both write "
                f"{sink.lstrip('$')!r}",
                line or call.line or tr.line,
                tr.name,
            )


def _check_unused_formals(tr: TRInfo, program: Program) -> Iterator[Diagnostic]:
    """VDG401: for simple TRs only string (pass-by-value) formals are
    suspect — an unreferenced dataset formal still drives staging and
    dependency wiring.  In a compound TR a formal of any kind that is
    never bound into a call is dead."""
    where = "any call" if tr.is_compound else "any template"
    for formal in tr.formals:
        if formal.name in tr.referenced:
            continue
        if tr.is_compound or formal.is_string:
            yield program.finding(
                "VDG401",
                f"TR {tr.name!r}: formal {formal.name!r} is never "
                f"referenced in {where}",
                formal.line or tr.line,
                tr.name,
            )


# -- derivations --------------------------------------------------------------


def check_derivation(key: str, program: Program) -> Iterator[Diagnostic]:
    """VDG002/10x/301 (self-cycles)/404/50x for one derivation."""
    dv = program.dv(key)
    first = program.keys_named(dv.name)[0]
    if first != key:
        yield program.finding(
            "VDG404",
            f"DV {dv.name!r} shadows an earlier derivation of the "
            f"same name (line {program.dv(first).line})",
            dv.line,
            dv.name,
        )
    tr = program.resolve_tr(dv.target)
    if tr is not None:
        yield from _check_signature(dv, tr, program)
    elif not dv.is_remote:  # a cross-catalog callee resolves at plan time
        yield program.finding(
            "VDG002",
            f"DV {dv.name!r} targets unknown transformation {dv.target!r}",
            dv.line,
            dv.name,
        )
    # Self-cycles: one DV both consumes and produces an LFN via
    # separate input/output actuals (inout is a legitimate in-place
    # update, handled by VDG203).
    reads = {a.lfn for a in dv.actuals if a.direction == "input"}
    for actual in dv.actuals:
        if actual.direction == "output" and actual.lfn in reads:
            yield program.finding(
                "VDG301",
                f"DV {dv.name!r} both consumes and produces "
                f"{actual.lfn!r}; the derivation depends on itself",
                actual.line,
                dv.name,
            )
    yield from _check_version(dv, program)


def _check_signature(
    dv: DVInfo, tr: TRInfo, program: Program
) -> Iterator[Diagnostic]:
    """VDG101-105: actuals against the resolved target signature."""
    of = f"of TR {tr.name!r}"
    bound: set[str] = set()
    for actual in dv.actuals:
        formal = tr.formal(actual.name)
        if formal is None:
            yield program.finding(
                "VDG101",
                f"DV {dv.name!r} binds unknown formal {actual.name!r} {of}",
                actual.line,
                dv.name,
            )
            continue
        bound.add(actual.name)
        if formal.is_string == actual.is_dataset:
            expected = "a string literal" if formal.is_string else "an @{...} dataset"
            got = "a dataset reference" if actual.is_dataset else "a string"
            yield program.finding(
                "VDG104",
                f"DV {dv.name!r}: formal {actual.name!r} {of} takes "
                f"{expected}, got {got}",
                actual.line,
                dv.name,
            )
            continue
        if actual.lfn is None:
            continue
        if formal.direction != "inout" and actual.direction != formal.direction:
            yield program.finding(
                "VDG103",
                f"DV {dv.name!r}: formal {actual.name!r} {of} is "
                f"{formal.direction!r}, bound as {actual.direction!r}",
                actual.line,
                dv.name,
            )
        if formal.types is None:
            continue
        # One conforming candidate suffices: inference is a may-analysis,
        # and an output binding's own declaration is always a candidate.
        inferred = program.lfn_types(actual.lfn)
        members = formal.types.members
        if inferred and not any(
            program.types.conforms_to_any(t, members) for t in inferred
        ):
            yield program.finding(
                "VDG105",
                f"DV {dv.name!r}: dataset {actual.lfn!r} has type "
                f"{'|'.join(str(t) for t in inferred)}, but formal "
                f"{actual.name!r} {of} requires {formal.types}",
                actual.line,
                dv.name,
            )
    for formal in tr.formals:
        if formal.name not in bound and not formal.has_default:
            yield program.finding(
                "VDG102",
                f"DV {dv.name!r} does not bind required formal "
                f"{formal.name!r} {of}",
                dv.line,
                dv.name,
            )


def _check_version(dv: DVInfo, program: Program) -> Iterator[Diagnostic]:
    """VDG501/502: a versioned target must parse and be declared."""
    name, wanted = split_target(dv.target)
    if dv.is_remote or wanted is None:
        return
    try:
        wanted_v = Version.parse(wanted)
    except SchemaError:
        yield program.finding(
            "VDG501",
            f"DV {dv.name!r} requests invalid version {wanted!r} of TR {name!r}",
            dv.line,
            dv.name,
        )
        return
    available: list[Version] = []
    for tr in program.declarations(name):  # an unknown TR is VDG002's
        try:
            available.append(Version.parse(tr.version))
        except SchemaError:
            continue
    if not available or wanted_v in available:
        return
    if any(program.versions.equivalent(name, wanted_v, v) for v in available):
        return
    yield program.finding(
        "VDG502",
        f"DV {dv.name!r} requests version {wanted} of TR {name!r}, "
        f"but only {', '.join(str(v) for v in sorted(available))} "
        f"{'is' if len(available) == 1 else 'are'} declared and no "
        f"compatibility assertion covers {wanted}",
        dv.line,
        dv.name,
    )


# -- datasets -----------------------------------------------------------------


def check_dataset(lfn: str, program: Program) -> Iterator[Diagnostic]:
    """VDG201/203/403 for one logical file and the bindings touching it."""
    writers = program.bindings(lfn, writes=True)
    outputs = [(dv, a) for dv, a in writers if a.direction == "output"]
    for dv, actual in outputs[1:]:
        first_dv, first = outputs[0]
        yield program.finding(
            "VDG201",
            f"dataset {lfn!r} is produced by DV {dv.name!r} and by DV "
            f"{first_dv.name!r}{_at_line(first.line)}; materialization "
            f"order would be nondeterministic",
            actual.line,
            lfn,
        )
    inouts = [(dv, a) for dv, a in writers if a.direction == "inout"]
    if writers and not inouts:
        return  # what follows needs the readers
    readers = program.bindings(lfn, writes=False)
    for dv, actual in inouts:
        other = next((o for o, _ in readers + writers if o is not dv), None)
        if other is not None:
            yield program.finding(
                "VDG203",
                f"DV {dv.name!r} updates {lfn!r} in place (inout) while DV "
                f"{other.name!r} also uses it; results depend on execution "
                f"order",
                actual.line,
                lfn,
            )
    # Info, not warning: raw inputs (instrument data) legitimately have
    # no producing DV.
    if readers and not writers and not program.is_materialized(lfn):
        dv, actual = readers[0]
        yield program.finding(
            "VDG403",
            f"dataset {lfn!r} is consumed (by DV {dv.name!r}) but no "
            f"derivation produces it and no replica is known",
            actual.line,
            lfn,
        )


# -- derivation cycles (VDG301) -----------------------------------------------


def _kahn_leftovers(
    names: Iterable[str], program: Program, upstream: bool
) -> set[str]:
    """What Kahn's walk over ``names`` leaves unplaced: the names on a
    cycle, plus those downstream (``upstream=True``: each waits for its
    upstream names) or upstream of one.  Links leaving ``names`` do not
    count."""
    deps = {name: program.linked(name, forward=not upstream) for name in names}
    template = dependency_counts(deps)
    try:
        for _level in kahn_levels(*template):
            pass
    except CycleError:
        pass
    ordered, missing = template[:2]
    return {ordered[node] for node, count in enumerate(missing) if count}


def find_cycles(
    names: Iterable[str], program: Program
) -> dict[tuple[str, ...], Diagnostic]:
    """VDG301 for every cycle among the derivation ``names``.

    A cycle is the set of derivations both downstream and upstream of
    one of its members (a strongly connected component); each is keyed
    by its members in name order.  Only names left behind by Kahn's
    walk in both directions — on a cycle, or between two — are
    searched.
    """
    stuck = _kahn_leftovers(names, program, upstream=True)
    stuck = _kahn_leftovers(stuck, program, upstream=False)

    def downstream(name: str) -> set[str]:
        return program.linked(name, forward=True) & stuck

    def upstream(name: str) -> set[str]:
        return program.linked(name, forward=False) & stuck

    found: dict[tuple[str, ...], Diagnostic] = {}
    done: set[str] = set()
    for name in sorted(stuck):
        if name in done:
            continue
        cycle = reachable(downstream, (name,)) & reachable(upstream, (name,))
        done |= cycle
        if len(cycle) < 2:
            continue
        members = tuple(sorted(cycle))
        anchor = min(members, key=program.line_of)
        found[members] = program.finding(
            "VDG301",
            f"derivation cycle: {' -> '.join(members)} -> {members[0]}; "
            f"no materialization order exists",
            program.line_of(anchor),
            anchor,
        )
    return found


def cycles_through(
    names: Iterable[str], program: Program
) -> dict[tuple[str, ...], Diagnostic]:
    """VDG301 for every cycle through one of the derivation ``names``:
    :func:`find_cycles` over what is both downstream and upstream of
    them."""

    def downstream(name: str) -> set[str]:
        return program.linked(name, forward=True)

    def upstream(name: str) -> set[str]:
        return program.linked(name, forward=False)

    names = list(names)
    region = reachable(downstream, names) & reachable(upstream, names)
    return find_cycles(region, program)


def check_all(
    program: Program, transformations: Iterable[str]
) -> Iterator[Diagnostic]:
    """Every check on every node of ``program``, cycles included."""
    for name in transformations:
        yield from check_transformation(name, program)
    graph = program.graph
    for key in graph.derivation_names():
        yield from check_derivation(key, program)
    for lfn in graph.dataset_names():
        yield from check_dataset(lfn, program)
    names = program.names_of(graph.derivation_names())
    yield from find_cycles(names, program).values()
