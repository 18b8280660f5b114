"""Invalidation: the blast radius of bad data or bad code.

Answers the §2 provenance question: "I've detected a calibration error
in an instrument and want to know which derived data to recompute."

:func:`invalidated_by` — given bad *datasets* and/or bad
*transformations* (e.g. a buggy version) — computes the transitive set
of derived datasets and the derivations that must be re-run.  Recipe
staleness of what is already materialized is the live analyzer's
VDG601/VDG602 (:class:`repro.analysis.passes.StalenessPass`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.provenance.graph import (
    DATASET,
    DERIVATION,
    DerivationGraph,
    dataset_node,
    derivation_node,
)


@dataclass
class InvalidationReport:
    """The blast radius of an invalidation event."""

    #: Datasets asserted bad by the caller (the roots).
    bad_datasets: set[str] = field(default_factory=set)
    #: Transformations asserted bad by the caller.
    bad_transformations: set[str] = field(default_factory=set)
    #: Derived datasets that can no longer be trusted.
    tainted_datasets: set[str] = field(default_factory=set)
    #: Derivations that must be re-executed to repair the damage.
    rerun_derivations: set[str] = field(default_factory=set)

    def total_affected(self) -> int:
        return len(self.tainted_datasets) + len(self.rerun_derivations)


def invalidated_by(
    graph: DerivationGraph,
    bad_datasets: Iterable[str] = (),
    bad_transformations: Iterable[str] = (),
) -> InvalidationReport:
    """Compute everything downstream of bad data or bad code.

    * A bad dataset taints every dataset downstream of it; every
      derivation on those paths must re-run (once its inputs are
      repaired).
    * A bad transformation taints the outputs of every derivation that
      invokes it, and everything downstream of those outputs.
    """
    report = InvalidationReport(
        bad_datasets=set(bad_datasets),
        bad_transformations=set(bad_transformations),
    )
    roots = set()
    for name in report.bad_datasets:
        node = dataset_node(name)
        if node in graph:
            roots.add(node)
    for tr_name in report.bad_transformations:
        for dv_name in graph.derivation_names():
            dv = graph.derivation(dv_name)
            if dv.transformation.name == tr_name:
                roots.add(derivation_node(dv_name))
    for root in roots:
        if root.kind == DERIVATION:
            report.rerun_derivations.add(root.name)
        for node in graph.descendants(root):
            if node.kind == DATASET:
                report.tainted_datasets.add(node.name)
            else:
                report.rerun_derivations.add(node.name)
    # The bad datasets themselves are not "derived", so they are not
    # tainted; but if a bad dataset is itself derived the caller likely
    # wants its producer re-run too — expose that via rerun set.
    for name in report.bad_datasets:
        node = dataset_node(name)
        if node in graph:
            for pred in graph.predecessors(node):
                report.rerun_derivations.add(pred.name)
    return report

