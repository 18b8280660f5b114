"""The linter: parse, lower, run every rule, collect diagnostics.

The :class:`Linter` is the façade the CLI and ``Planner`` pre-flight
use.  It degrades gracefully through the front-end stages:

1. a parse failure yields a single ``VDG000`` diagnostic (there is no
   AST to analyze);
2. each declaration is then lowered individually through the standard
   :class:`~repro.vdl.semantics.Analyzer` — a semantic error in one
   declaration becomes a ``VDG010`` diagnostic *without* hiding
   problems in the others;
3. finally the per-node checks of :mod:`repro.analysis.rules` run on
   every transformation, derivation and dataset the program declares,
   over a derivation graph with one node per DV declaration.

Instrumented through the observability layer: one ``analysis.lint``
span per run, and ``analysis.diagnostics`` counters labelled by code,
so lint activity shows up in ``repro stats`` and ``repro trace`` like
any other subsystem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

from repro.analysis.context import (
    AnalysisContext,
    DVInfo,
    TRInfo,
    split_target,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    Span,
    count_by_severity,
    max_severity,
)
from repro.analysis.registry import RuleRegistry, default_rules
from repro.analysis.rules import Program, check_all
from repro.analysis.suppressions import apply_suppressions
from repro.core.types import DatasetType, TypeRegistry
from repro.core.versioning import VersionRegistry
from repro.errors import VDLSemanticError, VDLSyntaxError
from repro.observability.instrument import NULL, Instrumentation
from repro.provenance.graph import DerivationGraph
from repro.vdl.ast import ProgramNode
from repro.vdl.parser import parse
from repro.vdl.semantics import Analyzer

if TYPE_CHECKING:
    from repro.catalog.base import VirtualDataCatalog


@dataclass
class LintResult:
    """Diagnostics from one lint run, plus the file they refer to."""

    file: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def clean(self) -> bool:
        """No errors and no warnings (info-only results are clean)."""
        severity = max_severity(self.diagnostics)
        return severity is None or severity < Severity.WARNING

    def counts(self) -> dict[str, int]:
        return count_by_severity(self.diagnostics)


class Linter:
    """Run the registered rules over VDL source, files, or a catalog."""

    def __init__(
        self,
        registry: Optional[RuleRegistry] = None,
        types: Optional[TypeRegistry] = None,
        versions: Optional[VersionRegistry] = None,
        obs: Instrumentation = NULL,
    ) -> None:
        self.registry = registry or default_rules()
        self.types = types
        self.versions = versions
        self.obs = obs

    # -- entry points ------------------------------------------------------

    def lint_source(
        self,
        source: str,
        file: str = "<string>",
        catalog: Optional[VirtualDataCatalog] = None,
    ) -> LintResult:
        """Lint VDL text; never raises on malformed input."""
        with self.obs.span("analysis.lint", file=file) as span:
            return self._observed(span, self._lint(source, file, catalog))

    def lint_file(self, path: Union[str, os.PathLike[str]]) -> LintResult:
        """Lint one ``.vdl`` file from disk."""
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return self.lint_source(source, file=os.fspath(path))

    def lint_catalog(
        self,
        catalog: VirtualDataCatalog,
        file: str = "<workspace>",
        incremental: bool = False,
    ) -> LintResult:
        """Lint everything a catalog holds.

        By default the catalog's own VDL export round-trips its
        definitions, so the spans point into that canonical listing;
        dataset records, the type registry and the version registry
        come from the catalog itself (replica knowledge suppresses
        ``VDG403`` for datasets that exist physically).

        With ``incremental=True`` the catalog's live analyzer checks
        its own graph instead — no export, no reparse, no semantic
        re-lowering — re-checking only the nodes changed since its last
        lint.  Spans are line 0 at ``file`` (there is no source text);
        parse/semantic diagnostics cannot occur because the entities
        were validated on their way into the catalog.
        """
        if not incremental:
            return self.lint_source(
                catalog.export_vdl(), file=file, catalog=catalog
            )
        with self.obs.span(
            "analysis.lint", file=file, incremental=True
        ) as span:
            analyzer = catalog.live_analyzer(file=file)
            result = LintResult(file=file, diagnostics=analyzer.lint(file))
            self._finish(result, source=None)
            return self._observed(span, result)

    # -- pipeline ----------------------------------------------------------

    def _lint(
        self,
        source: str,
        file: str,
        catalog: Optional[VirtualDataCatalog],
    ) -> LintResult:
        result = LintResult(file=file)
        try:
            program = parse(source)
        except VDLSyntaxError as exc:
            result.diagnostics.append(
                Diagnostic(
                    code="VDG000",
                    severity=Severity.ERROR,
                    message=exc.bare_message,
                    span=Span(file=file, line=exc.line, column=exc.column),
                    rule="parse",
                )
            )
            return result
        context = AnalysisContext(
            program,
            file=file,
            types=self.types,
            versions=self.versions,
            catalog=catalog,
        )
        result.diagnostics.extend(self._semantic_pass(program, context))
        result.diagnostics.extend(check_all(_SourceProgram(context), context.trs))
        self._finish(result, source=source)
        return result

    def _finish(self, result: LintResult, source: Optional[str]) -> None:
        """Registry- and ``noqa``-filter, then impose canonical order."""
        suppressed = self.registry.disabled_codes()
        if suppressed:
            result.diagnostics = [
                d for d in result.diagnostics if d.code not in suppressed
            ]
        result.diagnostics = apply_suppressions(result.diagnostics, source)
        result.diagnostics.sort(key=Diagnostic.sort_key)

    def _observed(self, span: Any, result: LintResult) -> LintResult:
        """Record a finished run on its span and in the counters."""
        if self.obs.enabled:
            span.set("diagnostics", len(result.diagnostics))
            span.set("errors", result.counts()["error"])
            self.obs.count("analysis.runs", help="lint invocations")
            for diag in result.diagnostics:
                self.obs.count(
                    "analysis.diagnostics",
                    help="lint findings by code",
                    code=diag.code,
                    severity=str(diag.severity),
                )
        return result

    def _semantic_pass(
        self, program: ProgramNode, context: AnalysisContext
    ) -> list[Diagnostic]:
        """Lower each declaration alone; collect (not raise) VDG010s."""
        analyzer = Analyzer(context.types)
        out: list[Diagnostic] = []
        for decl in program.declarations:
            try:
                analyzer.analyze(ProgramNode(declarations=(decl,)))
            except VDLSemanticError as exc:
                message, line = exc.bare_message, exc.line
                if "is not registered" in message:
                    # Unknown type names get the finer-grained VDG106
                    # (with the formal's own line) from the signature
                    # rule; a second VDG010 would be noise.
                    continue
                out.append(
                    Diagnostic(
                        code="VDG010",
                        severity=Severity.ERROR,
                        message=message,
                        span=Span(file=context.file, line=line),
                        obj=getattr(decl, "name", None),
                        rule="semantic",
                    )
                )
        return out


class _SourceProgram(Program):
    """A parsed program as the checks read it.

    Each DV declaration is its own graph node, keyed by its index, so a
    shadowed name (VDG404) still races and reads as a declaration of
    its own; cycles are judged per name.
    """

    def __init__(self, context: AnalysisContext) -> None:
        super().__init__(
            context.file,
            DerivationGraph(),
            context.types,
            context.versions,
            context.catalog,
        )
        self.context = context
        self._named: dict[str, list[str]] = {}
        self._called: set[str] = set()
        for index, dv in enumerate(context.dvs):
            key = str(index)
            self.graph.add_derivation_edges(
                key, dv.lfns(("input", "inout")), dv.lfns(("output", "inout"))
            )
            self._named.setdefault(dv.name, []).append(key)
            self._called.add(split_target(dv.target)[0])
        for trs in context.trs.values():
            for tr in trs:
                self._called.update(split_target(c.target)[0] for c in tr.calls)

    def ordered(self, keys: Iterable[str]) -> list[str]:
        return sorted(keys, key=int)

    def names_of(self, keys: Iterable[str]) -> set[str]:
        return {self.dv(key).name for key in keys}

    def keys_named(self, name: str) -> Sequence[str]:
        return self._named[name]

    def line_of(self, name: str) -> int:
        return self.dv(self._named[name][-1]).line

    def dv(self, key: str) -> DVInfo:
        return self.context.dvs[int(key)]

    def resolve_tr(self, target: str) -> Optional[TRInfo]:
        return self.context.resolve_tr(target)

    def declarations(self, name: str) -> Sequence[TRInfo]:
        return self.context.trs.get(name, ())

    def is_called(self, name: str) -> bool:
        return name in self._called

    def declared_type(self, lfn: str) -> Optional[DatasetType]:
        catalog = self.catalog
        if catalog is None or not catalog.has_dataset(lfn):
            return None
        dtype = catalog.get_dataset(lfn).dataset_type
        return None if dtype.is_any() else dtype
