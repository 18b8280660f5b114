"""MULTI — interactive ATLAS/CMS-style analysis with per-point lineage.

§6's closing goal: "to be able to produce, for each data point in the
final graph, a detailed data lineage report on the datasets that
contributed to the creation of that point", over multi-modal data
(files, relational rows, persistent object closures).

The benchmark runs the interactive analysis chain (multi-stage sim ->
cut-set -> per-bin histogram points -> combined graph), then produces
a lineage report for every point and measures report generation rate.
It also exercises the multi-modal descriptors: the cut-set's identity
as an object-closure and a SQL row-range dataset's fine-grained overlap.
"""

import json

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.core.descriptors import ObjectClosureDescriptor, SQLRowsDescriptor
from repro.executor.local import LocalExecutor
from repro.provenance.lineage import lineage_report
from repro.workloads import hep

BINS = tuple(str(b) for b in range(6))


class ObjectStore:
    """The least persistent object store that gives an
    :class:`ObjectClosureDescriptor` meaning (§3.1: "a closure of object
    references from a persistent object database"): objects by OID with
    outgoing references, and the closure over them."""

    def __init__(self):
        self._refs: dict[str, tuple[str, ...]] = {}

    def put(self, oid, refs=()):
        self._refs[oid] = tuple(refs)

    def closure(self, roots):
        """Every OID reachable from ``roots``; dangling references are
        ignored (a provenance snapshot records what exists)."""
        seen = set()
        frontier = list(roots)
        while frontier:
            oid = frontier.pop()
            if oid in seen or oid not in self._refs:
                continue
            seen.add(oid)
            frontier.extend(self._refs[oid])
        return seen


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    catalog = MemoryCatalog()
    executor = LocalExecutor(catalog, tmp_path_factory.mktemp("hep"))
    hep.register_bodies(executor)
    hep.register_analysis_bodies(executor)
    graph_ds = hep.define_analysis_chain(catalog, "ana1", bins=BINS)
    executor.materialize(graph_ds)
    return catalog, executor, graph_ds


def test_multi_per_point_lineage(scenario, analysis, table):
    def run():
        catalog, executor, graph_ds = analysis
        graph = json.loads(executor.path_for(graph_ds).read_text())
        assert len(graph["points"]) == len(BINS)
        rows = []
        for bin_id in BINS:
            point = f"ana1.point{bin_id}"
            report = lineage_report(catalog, point)
            derivations = report.all_derivations()
            # The full audit trail per data point (the §6 goal).
            assert {"ana1.gen", "ana1.sim", "ana1.reco", "ana1.select",
                    f"ana1.hist{bin_id}"} <= derivations
            rows.append(
                (
                    f"point {bin_id}",
                    report.depth(),
                    len(derivations),
                    f"{report.total_cpu_seconds() * 1e3:.1f}",
                )
            )
        table(
            "MULTI: lineage per histogram point",
            ["data point", "trail depth", "derivations", "recorded cpu ms"],
            rows,
        )

    scenario(run)


def test_multi_lineage_rate(analysis, benchmark):
    catalog, _, _ = analysis

    def all_points():
        return [
            lineage_report(catalog, f"ana1.point{b}") for b in BINS
        ]

    reports = benchmark(all_points)
    assert all(r.depth() == 5 for r in reports)


def test_multi_modal_descriptors(scenario, analysis, table):
    def run():
        """Files + object closures + relational rows in one trail."""
        catalog, executor, _ = analysis
        # The reco output is, logically, an object container: register the
        # matching closure descriptor and check extraction works.
        container = json.loads(executor.path_for("ana1.objects").read_text())
        store = ObjectStore()
        for oid in container["objects"]:
            store.put(oid)
        descriptor = ObjectClosureDescriptor(
            store="ana1-objects", roots=tuple(container["roots"][:10])
        )
        ds = catalog.get_dataset("ana1.objects")
        ds.descriptor = descriptor
        catalog.add_dataset(ds, replace=True)
        closure = store.closure(descriptor.roots)
        assert len(closure) == 10

        # A fine-grained relational dataset: rows of a cut table.
        cuts = SQLRowsDescriptor(
            database="analysisdb",
            tables=("cuts",),
            keys=tuple(container["roots"][:5]),
        )
        other = SQLRowsDescriptor(
            database="analysisdb",
            tables=("cuts",),
            keys=tuple(container["roots"][3:8]),
        )
        assert cuts.overlaps(other)  # shared rows detected at key grain
        catalog.add_dataset(
            Dataset(name="ana1.cutrows", descriptor=cuts), replace=True
        )
        table(
            "MULTI: multi-modal containers in one trail",
            ["dataset", "container kind", "granularity"],
            [
                ("ana1.hist0", "file", "whole file"),
                ("ana1.objects", "object-closure", f"{len(closure)} objects"),
                ("ana1.cutrows", "sql-rows", f"{cuts.row_count_hint()} rows"),
            ],
        )

    scenario(run)
