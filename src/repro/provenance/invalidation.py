"""Invalidation and staleness propagation.

Answers the §2 provenance question: "I've detected a calibration error
in an instrument and want to know which derived data to recompute."

Two mechanisms:

* :func:`invalidated_by` — given bad *datasets* and/or bad
  *transformations* (e.g. a buggy version), compute the transitive set
  of derived datasets and the derivations that must be re-run;
* :class:`StalenessTracker` — ``make``-style incremental
  rematerialization (§8 future work): datasets carry modification
  stamps; a dataset is stale when any upstream dataset is newer, and
  the planner can prune up-to-date derivations from a plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

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


class StalenessTracker:
    """``make``-style staleness over a derivation graph.

    Stamps are arbitrary monotonically comparable numbers (logical
    clocks or epoch seconds).  A *materialized* dataset is stale when
    some upstream materialized dataset has a newer stamp, or when any
    upstream dataset is missing/stale.  Unstamped datasets are treated
    as missing — they were never materialized.
    """

    def __init__(self, graph: DerivationGraph):
        self._graph = graph
        self._stamps: dict[str, float] = {}

    def stamp(self, dataset_name: str, when: float) -> None:
        """Record that ``dataset_name`` was (re)materialized at ``when``."""
        self._stamps[dataset_name] = when

    def stamp_of(self, dataset_name: str) -> Optional[float]:
        return self._stamps.get(dataset_name)

    def is_materialized(self, dataset_name: str) -> bool:
        return dataset_name in self._stamps

    def is_stale(self, dataset_name: str) -> bool:
        """Whether the dataset needs rematerialization.

        Source datasets are never stale (they are ground truth); a
        derived dataset is stale if unmaterialized, or if any direct
        input is stale, missing, or newer than it.
        """
        return dataset_name in self.stale_datasets({dataset_name})

    def stale_datasets(
        self, targets: Optional[Iterable[str]] = None
    ) -> set[str]:
        """All stale datasets among ``targets`` and their ancestry.

        With ``targets=None`` the whole graph is checked.
        """
        order = self._graph.topological_order()
        state: dict[str, bool] = {}  # name -> stale?
        for node in order:
            if node.kind != DATASET:
                continue
            preds = self._graph.predecessors(node)
            if not preds:
                state[node.name] = False  # sources are ground truth
                continue
            my_stamp = self._stamps.get(node.name)
            if my_stamp is None:
                state[node.name] = True
                continue
            stale = False
            for producer in preds:
                for input_node in self._graph.predecessors(producer):
                    input_name = input_node.name
                    if state.get(input_name, False):
                        stale = True
                        break
                    input_stamp = self._stamps.get(input_name)
                    is_source = not self._graph.predecessors(input_node)
                    if input_stamp is None and not is_source:
                        stale = True
                        break
                    if input_stamp is not None and input_stamp > my_stamp:
                        stale = True
                        break
                if stale:
                    break
            state[node.name] = stale
        if targets is None:
            return {name for name, stale in state.items() if stale}
        wanted = set(targets)
        relevant = set(wanted)
        for name in wanted:
            relevant |= self._graph.upstream_datasets(name)
        return {
            name
            for name in relevant
            if state.get(name, name not in self._stamps)
        }

    def derivations_to_run(self, target: str) -> set[str]:
        """Minimum derivations needed to freshen ``target`` (make -n).

        A derivation must run iff any of its outputs on the path to the
        target is stale.
        """
        stale = self.stale_datasets([target])
        needed = set()
        sub = self._graph.required_for(target)
        for dv_name in sub.derivation_names():
            dv = sub.derivation(dv_name)
            if any(output in stale for output in dv.outputs()):
                needed.add(dv_name)
        return needed
