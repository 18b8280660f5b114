"""The AST front end of the linter: one parsed program, normalized.

:class:`AnalysisContext` normalizes one parsed VDL program (plus an
optional catalog supplying the type registry, the version registry and
the signatures of transformations the program does not declare) into
:class:`TRInfo`/:class:`DVInfo` views that keep their source lines:

* transformations by name, with resolved formal signatures — type
  expressions resolved against the registry, unknown names kept on the
  declaration for the ``VDG106`` check rather than raised;
* derivations with per-actual source lines;
* :meth:`AnalysisContext.resolve_tr`, mapping a DV/call target to a
  signature.

Everything that relates declarations to one another — who writes or
reads a dataset, what types it may have, cycles — is read off a
derivation graph by the per-node checks in :mod:`repro.analysis.rules`,
the same way for a parsed program and for a catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.core.transformation import (
    CompoundTransformation,
    FormalRef,
    SimpleTransformation,
    Transformation,
)
from repro.core.types import TypeRegistry, TypeUnion, default_registry
from repro.core.versioning import VersionRegistry
from repro.errors import UnknownTypeError
from repro.vdl.ast import (
    ArgumentStmtNode,
    CallStmtNode,
    DatasetRefNode,
    DerivationDeclNode,
    EnvStmtNode,
    FormalRefNode,
    ProgramNode,
    TransformationDeclNode,
)
from repro.vdl.semantics import resolve_type_triple

if TYPE_CHECKING:
    from repro.catalog.base import VirtualDataCatalog


@dataclass
class FormalInfo:
    """One formal argument, normalized from AST or core objects."""

    name: str
    direction: str
    #: Resolved type union; None when untyped or explicitly "Dataset".
    types: Optional[TypeUnion] = None
    has_default: bool = False
    line: int = 0

    @property
    def is_string(self) -> bool:
        return self.direction == "none"


@dataclass
class CallInfo:
    """One call site inside a compound transformation body."""

    target: str
    #: ``(callee_formal, value, line)``; value is a string literal or a
    #: :class:`~repro.vdl.ast.FormalRefNode`.
    bindings: list[tuple[str, Union[str, FormalRefNode], int]]
    line: int = 0


@dataclass
class TRInfo:
    """One transformation declaration, normalized for the rules."""

    name: str
    version: str = "1.0"
    line: int = 0
    formals: list[FormalInfo] = field(default_factory=list)
    is_compound: bool = False
    calls: list[CallInfo] = field(default_factory=list)
    #: Formal names referenced by argument/env templates (simple TRs)
    #: or bound into calls (compound TRs).
    referenced: set[str] = field(default_factory=set)
    #: ``(line, message)`` per unresolvable formal type name (VDG106).
    type_issues: list[tuple[int, str]] = field(default_factory=list)

    def formal(self, name: str) -> Optional[FormalInfo]:
        for f in self.formals:
            if f.name == name:
                return f
        return None


@dataclass(slots=True)
class ActualInfo:
    """One DV actual argument with its source line."""

    name: str
    #: The dataset reference's LFN and direction; None for a string.
    lfn: Optional[str] = None
    direction: Optional[str] = None
    line: int = 0

    @property
    def is_dataset(self) -> bool:
        return self.lfn is not None


@dataclass
class DVInfo:
    """One derivation declaration, normalized for the rules."""

    name: str
    target: str
    actuals: list[ActualInfo] = field(default_factory=list)
    line: int = 0

    @property
    def is_remote(self) -> bool:
        return self.target.startswith("vdp://")

    def lfns(self, directions: tuple[str, ...]) -> set[str]:
        """The LFNs bound with one of ``directions``."""
        return {
            a.lfn
            for a in self.actuals
            if a.lfn is not None and a.direction in directions
        }


#: One (derivation, actual) pair touching an LFN.
Binding = tuple[DVInfo, ActualInfo]


def split_target(target: str) -> tuple[str, Optional[str]]:
    """Split a DV/call target ``name@version`` into its parts."""
    name, _, version = target.partition("@")
    return name, (version or None)


def pick_declaration(declared: list[TRInfo], version: Optional[str]) -> TRInfo:
    """The declaration a target picks: the last of the version it asks
    for, else the latest.  A versioned target that misses every declared
    version still resolves, so arity/type checks remain useful; the
    version rules flag the mismatch separately."""
    return ([d for d in declared if d.version == version] or declared)[-1]


class AnalysisContext:
    """One parsed program's declarations, plus an optional catalog."""

    def __init__(
        self,
        program: ProgramNode,
        file: str = "<string>",
        types: Optional[TypeRegistry] = None,
        versions: Optional[VersionRegistry] = None,
        catalog: Optional["VirtualDataCatalog"] = None,
    ) -> None:
        self.file = file
        self.catalog = catalog
        self.types = types or (
            catalog.types if catalog is not None else default_registry()
        )
        self.versions = versions or (
            catalog.versions if catalog is not None else VersionRegistry()
        )
        #: TR name -> declarations (several when versions/duplicates exist).
        self.trs: dict[str, list[TRInfo]] = {}
        self.dvs: list[DVInfo] = []
        self._tr_cache: dict[str, Optional[TRInfo]] = {}
        for decl in program.transformations():
            info = self._tr_info(decl)
            self.trs.setdefault(info.name, []).append(info)
        for decl in program.derivations():
            self.dvs.append(self._dv_info(decl))

    # -- normalization ----------------------------------------------------

    def _tr_info(self, decl: TransformationDeclNode) -> TRInfo:
        formals = []
        type_issues: list[tuple[int, str]] = []
        for node in decl.formals:
            types: Optional[TypeUnion] = None
            if node.type_expr is not None:
                members = []
                for content, fmt, enc in node.type_expr.members:
                    try:
                        members.append(
                            resolve_type_triple(self.types, content, fmt, enc)
                        )
                    except UnknownTypeError as exc:
                        type_issues.append(
                            (node.line, f"formal {node.name!r}: {exc}")
                        )
                if members:
                    types = TypeUnion(members=tuple(members))
            formals.append(
                FormalInfo(
                    name=node.name,
                    direction=node.direction,
                    types=self._drop_any(types),
                    has_default=node.default is not None,
                    line=node.line,
                )
            )
        referenced: set[str] = set()
        calls: list[CallInfo] = []
        for stmt in decl.body:
            if isinstance(stmt, (ArgumentStmtNode, EnvStmtNode)):
                referenced.update(
                    p.name for p in stmt.parts if isinstance(p, FormalRefNode)
                )
            elif isinstance(stmt, CallStmtNode):
                bindings = []
                for name, value in stmt.bindings:
                    if isinstance(value, FormalRefNode):
                        referenced.add(value.name)
                        bindings.append((name, value, value.line or stmt.line))
                    else:
                        bindings.append((name, value, stmt.line))
                calls.append(
                    CallInfo(target=stmt.target, bindings=bindings, line=stmt.line)
                )
        return TRInfo(
            name=decl.name,
            version=decl.version or "1.0",
            line=decl.line,
            formals=formals,
            is_compound=bool(calls),
            calls=calls,
            referenced=referenced,
            type_issues=type_issues,
        )

    @staticmethod
    def _drop_any(types: Optional[TypeUnion]) -> Optional[TypeUnion]:
        """Treat an explicit ``Dataset`` (all-roots) union as untyped."""
        if types is None or all(m.is_any() for m in types.members):
            return None
        return types

    def _dv_info(self, decl: DerivationDeclNode) -> DVInfo:
        actuals = []
        for name, value in decl.actuals:
            if isinstance(value, DatasetRefNode):
                actual = ActualInfo(name, value.lfn, value.direction, value.line)
            else:
                actual = ActualInfo(name, line=decl.line)
            actuals.append(actual)
        return DVInfo(
            name=decl.name, target=decl.target, actuals=actuals, line=decl.line
        )

    @staticmethod
    def _from_transformation(tr: Transformation) -> TRInfo:
        """Normalize a core catalog object into a :class:`TRInfo`."""
        formals = [
            FormalInfo(
                name=f.name,
                direction=f.direction,
                types=AnalysisContext._drop_any(f.dataset_types),
                has_default=f.default is not None,
            )
            for f in tr.signature.formals
        ]
        referenced: set[str] = set()
        calls: list[CallInfo] = []
        if isinstance(tr, SimpleTransformation):
            for template in list(tr.arguments) + list(tr.environment.values()):
                referenced.update(template.references())
        elif isinstance(tr, CompoundTransformation):
            for call in tr.calls:
                bindings = []
                for name, value in call.bindings.items():
                    if isinstance(value, FormalRef):
                        referenced.add(value.name)
                        bindings.append(
                            (name, FormalRefNode(value.name, value.direction), 0)
                        )
                    else:
                        bindings.append((name, value, 0))
                calls.append(
                    CallInfo(target=call.target.vdl_text(), bindings=bindings)
                )
        return TRInfo(
            name=tr.name,
            version=tr.version,
            formals=formals,
            is_compound=tr.is_compound,
            calls=calls,
            referenced=referenced,
        )

    # -- resolution -------------------------------------------------------

    def resolve_tr(self, target: str) -> Optional[TRInfo]:
        """Resolve a DV/call target to a signature, or None.

        Program declarations win (latest declaration of the name); a
        backing catalog is consulted next.  Remote ``vdp://`` targets
        resolve to None — cross-catalog callees are out of lint scope.
        """
        if target.startswith("vdp://"):
            return None
        if target in self._tr_cache:
            return self._tr_cache[target]
        name, version = split_target(target)
        info: Optional[TRInfo] = None
        declared = self.trs.get(name)
        if declared:
            info = pick_declaration(declared, version)
        elif self.catalog is not None and self.catalog.has_transformation(name):
            try:
                info = self._from_transformation(
                    self.catalog.get_transformation(name, version)
                )
            except Exception:
                info = self._from_transformation(
                    self.catalog.get_transformation(name)
                )
        self._tr_cache[target] = info
        return info
