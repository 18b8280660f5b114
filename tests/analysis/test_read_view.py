"""The analyzer as a read view of the catalog's graph and indexes.

It keeps no copy of the derivation graph, the replica index or the
derivations-per-transformation index, so opening or rebuilding one
reads neither store, and what a delete or replace unlinked reaches it
through ``CatalogIndexes.touched``.
"""

from repro.analysis.incremental import IncrementalAnalyzer
from repro.analysis.passes import (
    DeadDataPass,
    OutputConflictPass,
    StalenessPass,
    TypeFlowPass,
)
from repro.catalog.memory import MemoryCatalog
from repro.core.invocation import Invocation
from repro.core.replica import Replica
from repro.workloads import canonical
from tests.analysis.test_golden import sdss_bump
from tests.analysis.test_incremental import PIPELINE_VDL, put_replica


def codes(analyzer, pass_name):
    return [(d.code, d.obj) for d in analyzer.diagnostics(passes=[pass_name])]


def test_open_and_rebuild_scan_no_derivation_or_replica_store(
    any_catalog, derivation_scans
):
    graph = canonical.generate_graph(any_catalog, nodes=200, seed=3)
    put_replica(any_catalog, graph.sink_datasets[0])
    derivations = derivation_scans(any_catalog)
    replicas = derivation_scans(any_catalog, "replica")
    analyzer = IncrementalAnalyzer(any_catalog)
    try:
        analyzer.rebuild()
        assert analyzer.stats()["derivations"] == 200
        analyzer.diagnostics()
        assert derivations == replicas == []
    finally:
        analyzer.close()


def test_compatibility_assertion_is_noticed_at_query_time(tmp_path):
    stages = sdss_bump(tmp_path)
    catalog = next(stages)
    analyzer = catalog.live_analyzer()
    next(stages)  # sdss-brg@2.0
    assert codes(analyzer, "staleness")
    catalog.versions.assert_compatible(
        "sdss-brg", "1.0", "2.0", authority="survey-board"
    )
    # No analyzer.invalidate(): the assertion count moved, so the
    # query re-solves on its own.
    assert codes(analyzer, "staleness") == []


def test_two_analyzers_follow_the_same_events():
    catalog = MemoryCatalog().define(PIPELINE_VDL)
    first, second = catalog.live_analyzer(), IncrementalAnalyzer(catalog)
    try:
        for analyzer in (first, second):
            analyzer.diagnostics()
        put_replica(catalog, "mid")
        put_replica(catalog, "end")
        catalog.remove_derivation("s2")
        for analyzer in (first, second):
            # "mid" became a sink again; ds:end left with its producer.
            assert codes(analyzer, "dead-data") == []
            assert analyzer.stats()["nodes"] == 4
    finally:
        second.close()


def test_replica_reregistered_under_another_dataset():
    catalog = MemoryCatalog().define(PIPELINE_VDL)
    analyzer = catalog.live_analyzer()
    put_replica(catalog, "end")
    rid = put_replica(catalog, "mid")
    assert codes(analyzer, "dead-data") == [("VDG611", "mid")]
    catalog.restore_payload(
        "replica",
        rid,
        Replica(
            dataset_name="raw", location="site-a", replica_id=rid
        ).to_dict(),
    )
    # Both the dataset it left and the one it joined are re-judged.
    assert codes(analyzer, "dead-data") == [("VDG611", "raw")]
    put_replica(catalog, "mid", rid="rep-mid-2")
    assert codes(analyzer, "dead-data") == [
        ("VDG611", "mid"),
        ("VDG611", "raw"),
    ]


def test_invocation_moved_to_a_removed_derivation_turns_orphan():
    catalog = MemoryCatalog().define(PIPELINE_VDL)
    analyzer = catalog.live_analyzer()
    run = Invocation(derivation_name="s1", invocation_id="run-1")
    catalog.add_invocation(run)
    assert codes(analyzer, "dead-data") == []
    run.derivation_name = "gone"
    catalog.restore_payload("invocation", "run-1", run.to_dict())
    assert codes(analyzer, "dead-data") == [("VDG612", "run-1")]
    catalog.restore_payload("invocation", "run-1", None)
    assert codes(analyzer, "dead-data") == []


def test_cold_solve_works_only_on_the_kinds_a_pass_keeps(monkeypatch):
    """A pass with nothing to say about a kind never has that kind
    seeded, visited or stored; each kept node is visited at most twice
    on a graph with nothing stale."""
    catalog = MemoryCatalog()
    canonical.generate_graph(catalog, nodes=2000, layers=12, seed=5, fast=True)
    graph = catalog.derivation_graph()
    datasets = set(graph.dataset_names())
    derivations = set(graph.derivation_names())
    assert len(derivations) == 2000 and not datasets & derivations
    calls = {}

    def counting(cls, method):
        inner = getattr(cls, method)

        def wrapper(self, name, *args):
            calls.setdefault((cls.name, method), []).append(name)
            return inner(self, name, *args)

        monkeypatch.setattr(cls, method, wrapper)

    for cls in (StalenessPass, DeadDataPass, TypeFlowPass, OutputConflictPass):
        for method in ("transfer_dataset", "transfer_derivation"):
            if getattr(cls, method) is not None:
                counting(cls, method)
    analyzer = catalog.live_analyzer()
    assert analyzer.diagnostics() == []
    assert ("type-flow", "transfer_derivation") not in calls
    assert ("output-conflict", "transfer_dataset") not in calls
    assert set(calls["type-flow", "transfer_dataset"]) == datasets
    assert set(calls["output-conflict", "transfer_derivation"]) == derivations
    kept = {
        "staleness": len(datasets) + len(derivations),
        "dead-data": len(datasets) + len(derivations),
        "type-flow": len(datasets),
        "output-conflict": len(derivations),
    }
    stats = analyzer.stats()
    assert stats["nodes"] == len(datasets) + len(derivations)
    for name, nodes in kept.items():
        per_pass = stats["passes"][name]
        assert per_pass["seeds"] == nodes, name
        assert nodes <= per_pass["visited"] <= 2 * nodes, name
        transfers = sum(
            len(names) for (owner, _), names in calls.items() if owner == name
        )
        assert transfers == per_pass["visited"], name
    state = analyzer._states
    assert not state["type-flow"].facts.derivations
    assert not state["output-conflict"].facts.datasets
    assert not state["staleness"].reports.derivations
