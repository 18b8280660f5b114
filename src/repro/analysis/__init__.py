"""Static whole-program analysis of VDL and the derivation graph.

The :class:`~repro.vdl.semantics.Analyzer` checks one declaration at a
time; this package checks the *program*: cross-catalog signature
conformance, static output races, derivation-graph cycles, dead code,
and version-compatibility assertions.  Findings are
:class:`Diagnostic` records with stable ``VDGxxx`` codes (catalogued in
``docs/LINTING.md``), surfaced through ``repro lint`` and the
``plan --strict`` pre-flight.

Beyond the per-source rules, :mod:`repro.analysis.dataflow` provides a
generic worklist/fixpoint engine over the derivation graph, and
:mod:`repro.analysis.incremental` keeps its results (staleness, dead
data, interprocedural type flow, output conflicts — see
:mod:`repro.analysis.passes`) live against a mutating catalog via the
mutation-event stream, surfaced through ``repro analyze`` and
``repro lint --incremental``.
"""

from repro.analysis.context import AnalysisContext
from repro.analysis.dataflow import (
    DataflowPass,
    PerKind,
    SolveResult,
    SolveStats,
    solve,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    Span,
    count_by_severity,
    max_severity,
)
from repro.analysis.incremental import GraphModel, IncrementalAnalyzer
from repro.analysis.linter import Linter, LintResult
from repro.analysis.passes import (
    DeadDataPass,
    OutputConflictPass,
    StalenessPass,
    TypeFlowPass,
    default_passes,
)
from repro.analysis.registry import Rule, RuleRegistry, default_rules, rule
from repro.analysis.reporters import exit_code, render_json, render_text
from repro.analysis.suppressions import apply_suppressions, parse_suppressions

__all__ = [
    "AnalysisContext",
    "DataflowPass",
    "DeadDataPass",
    "Diagnostic",
    "GraphModel",
    "IncrementalAnalyzer",
    "Linter",
    "LintResult",
    "OutputConflictPass",
    "PerKind",
    "Rule",
    "RuleRegistry",
    "Severity",
    "SolveResult",
    "SolveStats",
    "Span",
    "StalenessPass",
    "TypeFlowPass",
    "apply_suppressions",
    "count_by_severity",
    "default_passes",
    "default_rules",
    "exit_code",
    "max_severity",
    "parse_suppressions",
    "render_json",
    "render_text",
    "rule",
    "solve",
]
