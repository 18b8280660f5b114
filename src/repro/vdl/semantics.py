"""Semantic analysis: lowering VDL ASTs onto core schema objects.

The analyzer enforces the rules the grammar cannot express:

* a TR body is either *simple* (argument/exec/env/profile statements)
  or *compound* (call statements) — never both;
* a simple TR must name an executable (``exec`` or a
  ``hints.pfnHint`` profile);
* every ``${...}`` reference must name a declared formal, and when the
  reference carries a direction it must be consistent with the formal's
  declaration (an ``inout`` formal may be referenced as input or
  output; others must match exactly);
* formal defaults must match the formal's kind (string for ``none``,
  ``@{...}`` for dataset formals);
* type expressions must resolve against the supplied
  :class:`~repro.core.types.TypeRegistry`.

Derivation-vs-transformation checks (arity, directions, dataset types)
happen later, at catalog registration time, because the callee may live
in a *different* catalog (Fig 2).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.derivation import DatasetArg, Derivation
from repro.core.naming import VDPRef
from repro.core.transformation import (
    ArgumentTemplate,
    CompoundTransformation,
    FormalArg,
    FormalRef,
    SimpleTransformation,
    Transformation,
    TransformationCall,
)
from repro.core.types import (
    DIMENSION_ROOTS,
    DIMENSIONS,
    DatasetType,
    TypeRegistry,
    TypeUnion,
    default_registry,
)
from repro.errors import SchemaError, UnknownTypeError, VDLSemanticError
from repro.vdl.ast import (
    ArgumentStmtNode,
    CallStmtNode,
    DatasetRefNode,
    DerivationDeclNode,
    EnvStmtNode,
    ExecStmtNode,
    FormalRefNode,
    ProfileStmtNode,
    ProgramNode,
    TransformationDeclNode,
    TypeExprNode,
)


def resolve_type_triple(
    registry: TypeRegistry, content: str, fmt: str, enc: str
) -> DatasetType:
    """Resolve one ``content/format/encoding`` triple against a registry.

    A ``-`` component means "dimension root"; the single-name form
    (``fmt == enc == "-"``) searches every dimension for the name.
    Raises :class:`~repro.errors.UnknownTypeError` on unregistered
    names.  Shared by the analyzer and :mod:`repro.analysis`.
    """
    if fmt == "-" and enc == "-":
        # Single-name form: find which dimension knows the name.
        for dim in DIMENSIONS:
            if registry.knows(dim, content):
                kwargs = {d: DIMENSION_ROOTS[d] for d in DIMENSIONS}
                kwargs[dim] = content
                return DatasetType(**kwargs)
        raise UnknownTypeError(
            f"type name {content!r} is not registered in any dimension"
        )
    resolved = {}
    for dim, name in (("content", content), ("format", fmt), ("encoding", enc)):
        if name == "-":
            resolved[dim] = DIMENSION_ROOTS[dim]
            continue
        if not registry.knows(dim, name):
            raise UnknownTypeError(
                f"type name {name!r} is not registered in dimension {dim!r}"
            )
        resolved[dim] = name
    return DatasetType(**resolved)


class ProgramObjects:
    """The result of analyzing one VDL program."""

    def __init__(
        self,
        transformations: list[Transformation],
        derivations: list[Derivation],
    ):
        self.transformations = transformations
        self.derivations = derivations

    def transformation(self, name: str) -> Transformation:
        for tr in self.transformations:
            if tr.name == name:
                return tr
        raise KeyError(name)

    def derivation(self, name: str) -> Derivation:
        for dv in self.derivations:
            if dv.name == name:
                return dv
        raise KeyError(name)


class Analyzer:
    """Lowers a :class:`ProgramNode` using a dataset-type registry."""

    def __init__(self, registry: Optional[TypeRegistry] = None):
        self._registry = registry or default_registry()

    def analyze(self, program: ProgramNode) -> ProgramObjects:
        transformations = [
            _lowered(self._transformation, decl)
            for decl in program.transformations()
        ]
        derivations = [
            _lowered(self._derivation, decl)
            for decl in program.derivations()
        ]
        return ProgramObjects(transformations, derivations)

    # -- transformations -------------------------------------------------

    def _transformation(self, decl: TransformationDeclNode) -> Transformation:
        formals = [self._formal(decl, f) for f in decl.formals]
        has_calls = any(isinstance(s, CallStmtNode) for s in decl.body)
        has_simple = any(
            isinstance(s, (ArgumentStmtNode, ExecStmtNode, EnvStmtNode))
            for s in decl.body
        )
        if has_calls and has_simple:
            raise VDLSemanticError(
                f"TR {decl.name!r} mixes call statements with "
                f"argument/exec/env statements; a transformation is "
                f"either simple or compound",
                line=decl.line,
            )
        version = decl.version or "1.0"
        formal_dirs = {f.name: f.direction for f in formals}
        if has_calls:
            calls = [
                self._call(decl, stmt, formal_dirs)
                for stmt in decl.body
                if isinstance(stmt, CallStmtNode)
            ]
            return CompoundTransformation(
                name=decl.name, formals=formals, calls=calls, version=version
            )
        return self._simple(decl, formals, formal_dirs, version)

    def _formal(
        self, decl: TransformationDeclNode, node
    ) -> FormalArg:
        default: Optional[str] = None
        temporary = False
        if node.default is not None:
            if node.direction == "none":
                if not isinstance(node.default, str):
                    raise VDLSemanticError(
                        f"TR {decl.name!r}: string formal {node.name!r} "
                        f"default must be a string literal",
                        line=node.line,
                    )
                default = node.default
            else:
                if not isinstance(node.default, DatasetRefNode):
                    raise VDLSemanticError(
                        f"TR {decl.name!r}: dataset formal {node.name!r} "
                        f"default must be an @{{...}} reference",
                        line=node.line,
                    )
                if node.default.direction != node.direction:
                    raise VDLSemanticError(
                        f"TR {decl.name!r}: default of {node.name!r} has "
                        f"direction {node.default.direction!r}, formal is "
                        f"{node.direction!r}",
                        line=node.line,
                    )
                default = node.default.lfn
                temporary = node.default.temporary
        types = (
            self._type_union(decl, node.type_expr)
            if node.type_expr is not None
            else TypeUnion()
        )
        return FormalArg(
            name=node.name,
            direction=node.direction,
            dataset_types=types,
            default=default,
            temporary_default=temporary,
        )

    def _type_union(
        self, decl: TransformationDeclNode, expr: TypeExprNode
    ) -> TypeUnion:
        members = []
        for content, fmt, enc in expr.members:
            members.append(self._resolve_triple(decl, content, fmt, enc))
        return TypeUnion(members=tuple(members))

    def _resolve_triple(
        self, decl: TransformationDeclNode, content: str, fmt: str, enc: str
    ) -> DatasetType:
        try:
            return resolve_type_triple(self._registry, content, fmt, enc)
        except UnknownTypeError as exc:
            raise VDLSemanticError(
                f"TR {decl.name!r}: {exc}", line=decl.line
            ) from None

    def _simple(
        self,
        decl: TransformationDeclNode,
        formals: list[FormalArg],
        formal_dirs: dict[str, str],
        version: str,
    ) -> SimpleTransformation:
        executable = ""
        arguments: list[ArgumentTemplate] = []
        environment: dict[str, ArgumentTemplate] = {}
        profile_hints: dict[str, str] = {}
        for stmt in decl.body:
            if isinstance(stmt, ExecStmtNode):
                if executable:
                    raise VDLSemanticError(
                        f"TR {decl.name!r}: multiple exec statements",
                        line=stmt.line,
                    )
                executable = stmt.path
            elif isinstance(stmt, ArgumentStmtNode):
                parts = self._template_parts(decl, stmt.parts, formal_dirs)
                arguments.append(ArgumentTemplate(parts=parts, name=stmt.name))
            elif isinstance(stmt, EnvStmtNode):
                parts = self._template_parts(decl, stmt.parts, formal_dirs)
                environment[stmt.variable] = ArgumentTemplate(
                    parts=parts, name=None
                )
            elif isinstance(stmt, ProfileStmtNode):
                profile_hints[stmt.key] = stmt.value
        if not executable:
            executable = profile_hints.get("hints.pfnHint", "")
        if not executable:
            raise VDLSemanticError(
                f"TR {decl.name!r}: simple transformation requires an exec "
                f"statement or a hints.pfnHint profile",
                line=decl.line,
            )
        return SimpleTransformation(
            name=decl.name,
            formals=formals,
            executable=executable,
            arguments=arguments,
            environment=environment,
            profile_hints=profile_hints,
            version=version,
        )

    def _template_parts(
        self,
        decl: TransformationDeclNode,
        parts,
        formal_dirs: dict[str, str],
    ) -> tuple:
        out = []
        for part in parts:
            if isinstance(part, FormalRefNode):
                self._check_ref(decl, part, formal_dirs)
                out.append(FormalRef(name=part.name, direction=part.direction))
            else:
                out.append(part)
        return tuple(out)

    def _check_ref(
        self,
        decl: TransformationDeclNode,
        ref: FormalRefNode,
        formal_dirs: dict[str, str],
    ) -> None:
        declared = formal_dirs.get(ref.name)
        if declared is None:
            raise VDLSemanticError(
                f"TR {decl.name!r}: ${{...}} references undeclared formal "
                f"{ref.name!r}",
                line=ref.line,
            )
        if ref.direction is None:
            return
        if declared == "inout":
            if ref.direction in ("input", "output", "inout"):
                return
        elif ref.direction == declared:
            return
        raise VDLSemanticError(
            f"TR {decl.name!r}: formal {ref.name!r} is {declared!r} but "
            f"referenced as {ref.direction!r}",
            line=ref.line,
        )

    def _call(
        self,
        decl: TransformationDeclNode,
        stmt: CallStmtNode,
        formal_dirs: dict[str, str],
    ) -> TransformationCall:
        bindings = {}
        for name, value in stmt.bindings:
            if isinstance(value, FormalRefNode):
                self._check_ref(decl, value, formal_dirs)
                bindings[name] = FormalRef(
                    name=value.name, direction=value.direction
                )
            else:
                bindings[name] = value
        return TransformationCall(
            target=VDPRef.parse(stmt.target, default_kind="transformation"),
            bindings=bindings,
        )

    # -- derivations --------------------------------------------------------

    def _derivation(self, decl: DerivationDeclNode) -> Derivation:
        actuals: dict[str, Union[str, DatasetArg]] = {}
        for name, value in decl.actuals:
            if name in actuals:
                raise VDLSemanticError(
                    f"DV {decl.name!r}: duplicate actual {name!r}",
                    line=decl.line,
                )
            if isinstance(value, DatasetRefNode):
                actuals[name] = DatasetArg(
                    dataset=value.lfn,
                    direction=value.direction,
                    temporary=value.temporary,
                )
            else:
                actuals[name] = value
        return Derivation(
            name=decl.name,
            transformation=VDPRef.parse(
                decl.target, default_kind="transformation"
            ),
            actuals=actuals,
        )


def _lowered(lower, decl):
    """``lower(decl)``, with a core-schema rejection of a name the
    declaration holds (an LFN ``".x"``, a versioned DV target
    ``tr@2.0``) reported as a semantic error at its line."""
    try:
        return lower(decl)
    except SchemaError as exc:
        raise VDLSemanticError(str(exc), line=decl.line) from None


def analyze(
    program: ProgramNode, registry: Optional[TypeRegistry] = None
) -> ProgramObjects:
    """Convenience wrapper over :class:`Analyzer`."""
    return Analyzer(registry).analyze(program)


def compile_vdl(
    source: str, registry: Optional[TypeRegistry] = None
) -> ProgramObjects:
    """Parse and analyze VDL ``source`` in one step."""
    from repro.vdl.parser import parse

    return analyze(parse(source), registry)
