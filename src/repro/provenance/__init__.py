"""Provenance: dependency graphs, lineage, invalidation (§2)."""

from repro.provenance.graph import (
    DATASET,
    DERIVATION,
    DerivationGraph,
    Node,
    dataset_node,
    derivation_node,
)
from repro.provenance.invalidation import (
    InvalidationReport,
    StalenessTracker,
    invalidated_by,
)
from repro.provenance.lineage import (
    LineageReport,
    LineageStep,
    cross_catalog_lineage,
    lineage_report,
)

__all__ = [
    "DATASET",
    "DERIVATION",
    "DerivationGraph",
    "InvalidationReport",
    "LineageReport",
    "LineageStep",
    "Node",
    "StalenessTracker",
    "cross_catalog_lineage",
    "dataset_node",
    "derivation_node",
    "invalidated_by",
    "lineage_report",
]
