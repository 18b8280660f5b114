"""Tests for invalidation propagation."""

import pytest

from repro.provenance.graph import DerivationGraph
from repro.provenance.invalidation import invalidated_by


@pytest.fixture
def graph(diamond_catalog):
    return DerivationGraph.from_catalog(diamond_catalog)


class TestInvalidation:
    def test_calibration_error_scenario(self, graph):
        """'I've detected a calibration error in an instrument and want
        to know which derived data to recompute.' (§2)"""
        report = invalidated_by(graph, bad_datasets=["raw1"])
        assert report.tainted_datasets == {"sim1", "final"}
        assert report.rerun_derivations == {"g1", "s1", "a1"}

    def test_unrelated_branch_untouched(self, graph):
        report = invalidated_by(graph, bad_datasets=["raw2"])
        assert "sim1" not in report.tainted_datasets

    def test_bad_transformation(self, graph):
        report = invalidated_by(graph, bad_transformations=["sim"])
        # both sim derivations rerun; their outputs and final tainted
        assert report.rerun_derivations >= {"s1", "s2", "a1"}
        assert report.tainted_datasets == {"sim1", "sim2", "final"}

    def test_leaf_dataset(self, graph):
        report = invalidated_by(graph, bad_datasets=["final"])
        assert report.tainted_datasets == set()
        assert report.rerun_derivations == {"a1"}

    def test_unknown_dataset_harmless(self, graph):
        report = invalidated_by(graph, bad_datasets=["nope"])
        assert report.total_affected() == 0

    def test_combined_roots(self, graph):
        report = invalidated_by(
            graph, bad_datasets=["raw1"], bad_transformations=["ana"]
        )
        assert "a1" in report.rerun_derivations
        assert report.bad_transformations == {"ana"}

