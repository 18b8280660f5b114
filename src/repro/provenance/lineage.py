"""Lineage reports: the complete audit trail behind a dataset.

"Provenance: determining the validity of data by gaining access to a
complete audit trail describing how the data was produced from the
datasets and previous data derivations on which it depends." (§2)

Two entry points:

* :func:`lineage_report` — the full recursive audit trail for one
  dataset within one catalog, including transformation versions,
  string parameters, and invocation records (when available);
* :func:`cross_catalog_lineage` — the same walk but following
  dataset-dependency hyperlinks across servers via a
  :class:`~repro.catalog.resolver.ReferenceResolver` (Fig 3).

The paper's §6 goal — "produce, for each data point in the final graph,
a detailed data lineage report on the datasets that contributed to the
creation of that point" — is served by :func:`lineage_report` applied
to fine-grained datasets (e.g. SQL row-range descriptors), exercised by
the MULTI benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.catalog.resolver import ReferenceResolver
from repro.core.derivation import Derivation
from repro.core.invocation import Invocation


@dataclass
class LineageStep:
    """One derivation in an audit trail, with its execution evidence."""

    derivation: Derivation
    authority: str = "local"
    transformation_version: Optional[str] = None
    invocations: list[Invocation] = field(default_factory=list)
    #: Lineage of each input dataset, keyed by dataset name.
    inputs: dict[str, "LineageReport"] = field(default_factory=dict)

    def parameters(self) -> dict[str, str]:
        """The string (pass-by-value) actuals of this step."""
        return {
            k: v for k, v in self.derivation.actuals.items() if isinstance(v, str)
        }


@dataclass
class LineageReport:
    """The audit trail of one dataset.

    ``steps`` lists the derivations that produced the dataset (normally
    one; multiple producers are reported, not hidden, since they are a
    data-quality signal).  An empty ``steps`` means the dataset is a
    source: raw data with no recorded derivation.
    """

    dataset: str
    steps: list[LineageStep] = field(default_factory=list)

    @property
    def is_source(self) -> bool:
        return not self.steps

    def depth(self) -> int:
        """Longest chain of derivations in this report (level by level:
        a report on level *k* with steps of its own adds one)."""
        depth, level = 0, [self]
        while any(report.steps for report in level):
            depth += 1
            level = [
                inp
                for report in level
                for step in report.steps
                for inp in step.inputs.values()
            ]
        return depth

    def _trail(self) -> Iterator["LineageReport"]:
        """This report and every report nested in it, however deep."""
        stack = [self]
        while stack:
            report = stack.pop()
            yield report
            for step in report.steps:
                stack.extend(step.inputs.values())

    def all_source_datasets(self) -> set[str]:
        """Every raw dataset this dataset transitively derives from."""
        return {r.dataset for r in self._trail() if r.is_source}

    def all_derivations(self) -> set[str]:
        """Every derivation name appearing anywhere in the trail."""
        return {
            step.derivation.name
            for report in self._trail()
            for step in report.steps
        }

    def total_cpu_seconds(self) -> float:
        """Sum of recorded cpu time over all invocations in the trail."""
        # Inputs before the reports that read them (a report follows
        # its parent in the trail), each report adding its own steps'
        # time and then its inputs' totals: the nested sums' order.
        totals: dict[int, float] = {}
        for report in reversed(list(self._trail())):
            total = 0.0
            for step in report.steps:
                total += sum(inv.usage.cpu_seconds for inv in step.invocations)
                for inp in step.inputs.values():
                    total += totals[id(inp)]
            totals[id(report)] = total
        return totals[id(self)]

    def render(self, indent: int = 0) -> str:
        """Human-readable multi-line audit trail."""
        lines: list[str] = []
        # Still to print, last first: finished lines and the
        # ``(report, indent)`` subtrees that go between them.
        stack: list[str | tuple[LineageReport, int]] = [(self, indent)]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                lines.append(item)
                continue
            report, indent = item
            pad = "  " * indent
            if not report.steps:
                lines.append(f"{pad}{report.dataset}  [source]")
                continue
            lines.append(f"{pad}{report.dataset}")
            for step in reversed(report.steps):
                stack.extend(
                    (step.inputs[name], indent + 3)
                    for name in sorted(step.inputs, reverse=True)
                )
                dv = step.derivation
                params = step.parameters()
                if params:
                    rendered = ", ".join(
                        f"{k}={v!r}" for k, v in sorted(params.items())
                    )
                    stack.append(f"{pad}     params: {rendered}")
                version = (
                    f" (v{step.transformation_version})"
                    if step.transformation_version
                    else ""
                )
                runs = (
                    f", {len(step.invocations)} run(s)"
                    if step.invocations
                    else ""
                )
                where = (
                    f" @{step.authority}" if step.authority != "local" else ""
                )
                stack.append(
                    f"{pad}  <- {dv.name} -> {dv.transformation.name}"
                    f"{version}{where}{runs}"
                )
        return "\n".join(lines)


def lineage_report(
    catalog: VirtualDataCatalog,
    dataset_name: str,
    include_invocations: bool = True,
    max_depth: Optional[int] = None,
) -> LineageReport:
    """Build the full audit trail of ``dataset_name`` within ``catalog``.

    ``max_depth`` truncates the recursion (deeper inputs are reported
    as sources), which keeps reports tractable on very deep chains.
    """
    return _report(
        dataset_name,
        producers=lambda name: [
            (dv, "local") for dv in catalog.producers_of(name)
        ],
        invocations=(
            catalog.invocations_of if include_invocations else lambda _: []
        ),
        version_of=_version_lookup(catalog),
        max_depth=max_depth,
    )


def cross_catalog_lineage(
    resolver: ReferenceResolver,
    dataset_name: str,
    include_invocations: bool = True,
    max_depth: Optional[int] = None,
) -> LineageReport:
    """Audit trail following hyperlinks across catalogs (Fig 3).

    Producers are located through the resolver's scope chain, so a
    personal derivation depending on a collaboration dataset reports
    the collaboration-side derivation with its authority.
    """

    def invocations(name: str) -> list[Invocation]:
        if not include_invocations:
            return []
        out = []
        for catalog in [resolver.home] + [
            resolver.network.catalog(a)
            for a in resolver.scope_chain
            if a in resolver.network
        ]:
            out.extend(catalog.invocations_of(name))
        return out

    return _report(
        dataset_name,
        producers=resolver.producers_of,
        invocations=invocations,
        version_of=_version_lookup(resolver.home),
        max_depth=max_depth,
    )


def _version_lookup(catalog: VirtualDataCatalog):
    """``version_of(dv)`` for one report: each transformation is looked
    up once, and only its version string is read — off the catalog's
    shared record, not a copy of the whole transformation."""
    versions: dict[str, Optional[str]] = {}

    def version_of(dv: Derivation) -> Optional[str]:
        name = dv.transformation.name
        if not dv.transformation.is_local:
            return None
        if name not in versions:
            versions[name] = (
                catalog._transformation_record(name).version
                if catalog.has_transformation(name)
                else None
            )
        return versions[name]

    return version_of


def _report(
    dataset_name: str,
    producers,
    invocations,
    version_of,
    max_depth: Optional[int],
) -> LineageReport:
    root = LineageReport(dataset=dataset_name)
    #: Datasets on the path from the root to the report being expanded.
    path: set[str] = set()
    # (report, depth left, leaving): expand the report, or — once the
    # subtree below it is done — take it off the path again.
    stack: list[tuple[LineageReport, Optional[int], bool]] = [
        (root, max_depth, False)
    ]
    while stack:
        report, depth, leaving = stack.pop()
        if leaving:
            path.discard(report.dataset)
            continue
        if depth is not None and depth <= 0:
            continue
        if report.dataset in path:
            continue  # cycle guard: report as source rather than recurse
        below = None if depth is None else depth - 1
        children = []
        for dv, authority in producers(report.dataset):
            step = LineageStep(
                derivation=dv,
                authority=authority,
                transformation_version=version_of(dv),
                invocations=list(invocations(dv.name)),
            )
            for input_name in dv.inputs():
                step.inputs[input_name] = child = LineageReport(input_name)
                children.append((child, below, False))
            report.steps.append(step)
        if children:
            path.add(report.dataset)
            stack.append((report, depth, True))
            stack.extend(reversed(children))
    return root
