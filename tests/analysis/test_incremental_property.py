"""Property: incremental re-analysis ≡ cold full analysis.

Any sequence of catalog mutations, interleaved with queries that force
incremental solves, must leave the live analyzer with *byte-identical*
diagnostics to a fresh analyzer cold-solving the same catalog.  This is
the correctness contract of the whole incremental machinery: the least
fixpoint is order-independent, so no mutation schedule may change it.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.dataflow import fact_tables
from repro.analysis.incremental import IncrementalAnalyzer
from repro.catalog.memory import MemoryCatalog
from repro.core.derivation import DatasetArg, Derivation
from repro.core.invocation import Invocation
from repro.core.naming import VDPRef
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.provenance.graph import DerivationGraph
from tests.catalog.test_catalog_properties import open_catalog
from tests.provenance.test_graphcache import edges

#: Small closed universes keep collisions (the interesting case) likely.
DATASETS = [f"d{i}" for i in range(6)]
DERIVATIONS = [f"v{i}" for i in range(5)]

BASE_VDL = """
TR step( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/step";
}
TR twostep( output o, input i ) {
  step( o=${output:o}, i=${input:i} );
  step( o="scratch.tmp", i=${input:i} );
}
"""

define_op = st.tuples(
    st.just("define"),
    st.sampled_from(DERIVATIONS),
    st.sampled_from(DATASETS),  # output
    st.sampled_from(DATASETS),  # input
    st.sampled_from(["step", "twostep"]),
)
remove_op = st.tuples(st.just("remove"), st.sampled_from(DERIVATIONS))
replicate_op = st.tuples(st.just("replicate"), st.sampled_from(DATASETS))
drop_replica_op = st.tuples(st.just("drop-replica"), st.sampled_from(DATASETS))
run_op = st.tuples(st.just("run"), st.sampled_from(DERIVATIONS))
bump_op = st.tuples(st.just("bump"), st.sampled_from(["step", "twostep"]))
query_op = st.tuples(st.just("query"))

plain_op = st.one_of(
    define_op,
    remove_op,
    replicate_op,
    drop_replica_op,
    run_op,
    bump_op,
    query_op,
)
#: The catalog's grouped write paths: a committed batch, a transaction
#: that raises (every applied write is rolled back), and a snapshot
#: import (raw batched writes announced afterwards).
grouped_op = st.one_of(
    st.tuples(st.sampled_from(["bulk", "abort"]), st.lists(plain_op, max_size=4)),
    st.tuples(
        st.just("import"),
        st.lists(st.one_of(define_op, replicate_op, run_op), max_size=4),
    ),
)
operations = st.lists(
    st.one_of(plain_op, grouped_op), min_size=1, max_size=12
)


class Driver:
    """Applies one mutation op to a catalog, tolerating no-ops."""

    def __init__(self, catalog, query=lambda: None, ids: str = "") -> None:
        self.catalog = catalog
        self.query = query
        #: Prefix keeping an import source's ids apart from the target's.
        self.ids = ids
        self.counter = 0

    def apply(self, op: tuple) -> None:
        self.counter += 1
        kind = op[0]
        if kind == "query":
            self.query()  # force an incremental solve mid-run
        elif kind == "bulk":
            with self.catalog.bulk():
                for inner in op[1]:
                    self.apply(inner)
        elif kind == "abort":
            with pytest.raises(ZeroDivisionError):
                with self.catalog.transaction():
                    for inner in op[1]:
                        self.apply(inner)
                    raise ZeroDivisionError
        elif kind == "import":
            source = MemoryCatalog()
            source.define(BASE_VDL)
            loader = Driver(source, ids=f"s{self.counter}-")
            for inner in op[1]:
                loader.apply(inner)
            self.catalog.import_snapshot(source.export_snapshot())
        elif kind == "define":
            _, name, out, inp, target = op
            if out == inp:
                return  # would be a self-loop; the generator skips it
            dv = Derivation(
                name=name,
                transformation=VDPRef.parse(
                    target, default_kind="transformation"
                ),
                actuals={
                    "o": DatasetArg(dataset=out, direction="output"),
                    "i": DatasetArg(dataset=inp, direction="input"),
                },
            )
            self.catalog.add_derivation(dv, replace=True, validate=False)
        elif kind == "remove":
            _, name = op
            if self.catalog.has_derivation(name):
                self.catalog.remove_derivation(name)
        elif kind == "replicate":
            _, lfn = op
            replica = Replica(
                dataset_name=lfn,
                location="site-a",
                replica_id=f"{self.ids}r{self.counter}",
            )
            self.catalog.add_replica(replica)
        elif kind == "drop-replica":
            _, lfn = op
            replicas = self.catalog.replicas_of(lfn)
            if replicas:
                self.catalog.remove_replica(replicas[-1].replica_id)
        elif kind == "run":
            _, name = op
            if not self.catalog.has_derivation(name):
                return
            dv = self.catalog.get_derivation(name)
            tr = self.catalog.get_transformation(
                dv.transformation.name.split("@")[0]
            )
            invocation = Invocation(
                derivation_name=name,
                invocation_id=f"{self.ids}inv-{self.counter:04d}",
                start_time=float(self.counter),
            )
            stamp_recipe(invocation, dv, tr)
            self.catalog.add_invocation(invocation)
        elif kind == "bump":
            _, tr_name = op
            body = (
                "  argument stdin = ${input:i};\n"
                "  argument stdout = ${output:o};\n"
                f'  exec = "/bin/{tr_name}-{self.counter}";\n'
                if tr_name == "step"
                else "  step( o=${output:o}, i=${input:i} );\n"
            )
            self.catalog.define(
                f"TR {tr_name}@1.{self.counter}( output o, input i ) {{\n"
                f"{body}}}\n"
            )


def rendered(diagnostics) -> str:
    return json.dumps([d.as_dict() for d in diagnostics], sort_keys=True)


def assert_view_is_cold_graph(analyzer, catalog) -> None:
    """The graph the analyzer solves over is the stored derivations:
    the catalog's own graph object, equal to a cold rebuild map by map
    (the predecessor maps too — the engine reads all four)."""
    live = analyzer.model.graph
    assert live is catalog.derivation_graph()
    cold = DerivationGraph.from_catalog(catalog)
    assert live.nodes() == cold.nodes()
    assert edges(live) == edges(cold)
    for mine, theirs in zip(live.adjacency(), cold.adjacency()):
        assert {k: set(v) for k, v in mine.items()} == {
            k: set(v) for k, v in theirs.items()
        }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=operations,
    backend=st.sampled_from(("memory", "sqlite", "filetree")),
)
def test_incremental_equals_cold_full_analysis(ops, backend):
    with open_catalog(backend) as catalog:
        catalog.define(BASE_VDL)
        live = IncrementalAnalyzer(catalog)
        try:
            driver = Driver(catalog, query=live.diagnostics)
            for op in ops:
                driver.apply(op)
            incremental = rendered(live.diagnostics())
            assert_view_is_cold_graph(live, catalog)
            cold = IncrementalAnalyzer(catalog)
            try:
                full = rendered(cold.diagnostics())
            finally:
                cold.close()
            assert incremental == full
        finally:
            live.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_incremental_lint_context_tracks_mutations(ops):
    """The live lint context lists exactly the catalog's derivations."""
    catalog = MemoryCatalog()
    catalog.define(BASE_VDL)
    live = IncrementalAnalyzer(catalog)
    try:
        driver = Driver(catalog)
        for op in ops:
            driver.apply(op)
        context = live.lint_context()
        assert sorted(d.name for d in context.dvs) == sorted(
            catalog.derivation_names()
        )
    finally:
        live.close()


# -- differential: the engine's tables against a sweep of a cold graph -------

#: Two derivations of the op universe feeding each other.
CYCLE = [
    ("define", "v0", "d1", "d0", "step"),
    ("define", "v1", "d0", "d1", "twostep"),
]
#: ... executed, materialized, then stale at the root and solved that
#: way: every pass now carries facts around a cycle.
STALE_CYCLE = CYCLE + [
    ("run", "v0"),
    ("run", "v1"),
    ("replicate", "d0"),
    ("replicate", "d1"),
    ("query",),
    ("bump", "step"),
    ("query",),
]


def naive_tables(pass_, graph, model):
    """Least fixpoint by brute force: every node of ``graph``, in name
    order, again and again until a whole sweep changes nothing."""
    producers, consumers, inputs, outputs = graph.adjacency()
    upstream, downstream = (producers, inputs), (consumers, outputs)
    sources = {"forward": upstream, "backward": downstream}.get(
        pass_.direction
    )
    transfers = (pass_.transfer_dataset, pass_.transfer_derivation)
    facts = fact_tables()
    moved = True
    while moved:
        moved = False
        for kind, transfer in enumerate(transfers):
            if transfer is None:
                continue
            for name in sorted(upstream[kind]):
                reads = sources[kind][name] if sources else ()
                new = transfer(name, reads, facts, model)
                if facts[kind].get(name) != new:
                    facts[kind][name] = new
                    moved = True
    return facts


def assert_tables_are_the_naive_fixpoint(live, catalog) -> None:
    live.diagnostics()
    cold_graph = DerivationGraph.from_catalog(catalog)
    for state in live._states.values():
        pass_ = state.pass_
        expected = naive_tables(pass_, cold_graph, live.model)
        assert state.facts == expected, pass_.name
        # Nothing is kept for a kind the pass has no transfer for, and
        # nothing reported for one it has no report for.
        for table, cache, transfer, report in zip(
            state.facts,
            state.reports,
            (pass_.transfer_dataset, pass_.transfer_derivation),
            (pass_.report_dataset, pass_.report_derivation),
        ):
            assert transfer is not None or not table
            assert report is not None or not cache


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_solved_tables_equal_a_naive_sweep_of_a_cold_graph(ops):
    catalog = MemoryCatalog()
    catalog.define(BASE_VDL)
    live = IncrementalAnalyzer(catalog)
    try:
        driver = Driver(catalog, query=live.diagnostics)
        for op in STALE_CYCLE + ops:
            driver.apply(op)
        assert_tables_are_the_naive_fixpoint(live, catalog)
    finally:
        live.close()


def test_a_cycle_unplugged_from_its_stale_root_drains():
    """Facts on a cycle would keep each other up after their support
    is gone; the incremental solve must end where a sweep from bottom
    does."""
    catalog = MemoryCatalog()
    catalog.define(BASE_VDL)
    live = IncrementalAnalyzer(catalog)
    try:
        driver = Driver(catalog, query=live.diagnostics)
        for op in STALE_CYCLE:
            driver.apply(op)
        stale = live._states["staleness"].facts
        assert all(stale.datasets[lfn] for lfn in ("d0", "d1"))
        assert {d.code for d in live.diagnostics()} >= {"VDG601"}
        driver.apply(("run", "v0"))
        driver.apply(("run", "v1"))
        assert_tables_are_the_naive_fixpoint(live, catalog)
        assert not any(stale.datasets.values())
        assert not any(stale.derivations.values())
        assert live.stats()["passes"]["staleness"]["reset_cone"] >= 4
        assert not [d for d in live.diagnostics() if d.code.startswith("VDG60")]
    finally:
        live.close()
