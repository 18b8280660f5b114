"""Property: incremental re-analysis ≡ cold full analysis.

Any sequence of catalog mutations, interleaved with queries that force
incremental solves, must leave the live analyzer with *byte-identical*
diagnostics to a fresh analyzer cold-solving the same catalog.  This is
the correctness contract of the whole incremental machinery: the least
fixpoint is order-independent, so no mutation schedule may change it.
"""

from __future__ import annotations

import json
import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.analysis import Diagnostic, Linter
from repro.analysis.dataflow import fact_tables
from repro.analysis.incremental import IncrementalAnalyzer
from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import DatasetArg, Derivation
from repro.core.invocation import Invocation
from repro.core.naming import VDPRef
from repro.core.recipe import stamp_recipe
from repro.core.replica import Replica
from repro.core.types import DatasetType
from repro.provenance.graph import DerivationGraph
from tests.catalog.test_catalog_properties import open_catalog
from tests.provenance.test_graphcache import edges

#: Small closed universes keep collisions (the interesting case) likely.
#: ``scratch.tmp`` is what ``twostep`` writes inside its body, so a
#: surface writer of it races an internal one.
DATASETS = [f"d{i}" for i in range(6)] + ["scratch.tmp"]
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
TR typed( output o : SDSS/Simple/Binary, input i : SDSS/Simple/ASCII ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/typed";
}
TR wrap( output o, input i ) {
  typed( o=${output:o}, i=${input:i} );
}
"""

#: Declared dataset types a ``retype`` op picks from: untyped, one that
#: conforms to ``typed``'s input, and one that does not.  ``typed``'s
#: own output does not either, so ``typed`` feeding ``wrap`` is a
#: finding with no declared type at all.
TYPES = {
    "any": DatasetType(),
    "sdss": DatasetType(content="SDSS", format="Simple", encoding="ASCII"),
    "image": DatasetType(content="Image-raw", format="Simple", encoding="Binary"),
}

define_op = st.tuples(
    st.just("define"),
    st.sampled_from(DERIVATIONS),
    st.sampled_from(DATASETS),  # output
    st.sampled_from(DATASETS),  # input
    st.sampled_from(["step", "twostep", "typed", "wrap"]),
)
remove_op = st.tuples(st.just("remove"), st.sampled_from(DERIVATIONS))
replicate_op = st.tuples(st.just("replicate"), st.sampled_from(DATASETS))
drop_replica_op = st.tuples(st.just("drop-replica"), st.sampled_from(DATASETS))
run_op = st.tuples(st.just("run"), st.sampled_from(DERIVATIONS))
bump_op = st.tuples(
    st.just("bump"), st.sampled_from(["step", "twostep", "wrap"])
)
retype_op = st.tuples(
    st.just("retype"), st.sampled_from(DATASETS), st.sampled_from(sorted(TYPES))
)
query_op = st.tuples(st.just("query"))

plain_op = st.one_of(
    define_op,
    remove_op,
    replicate_op,
    drop_replica_op,
    run_op,
    bump_op,
    retype_op,
    query_op,
)
#: The catalog's grouped write paths: a committed batch, a transaction
#: that raises (every applied write is rolled back), and a snapshot
#: import (raw batched writes announced afterwards).
grouped_op = st.one_of(
    st.tuples(st.sampled_from(["bulk", "abort"]), st.lists(plain_op, max_size=4)),
    st.tuples(
        st.just("import"),
        st.lists(
            st.one_of(define_op, replicate_op, run_op, retype_op), max_size=4
        ),
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
        elif kind == "retype":
            _, lfn, type_name = op
            self.catalog.add_dataset(
                Dataset(name=lfn, dataset_type=TYPES[type_name]), replace=True
            )
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


#: Two derivations of the op universe feeding each other.
CYCLE = [
    ("define", "v0", "d1", "d0", "step"),
    ("define", "v1", "d0", "d1", "twostep"),
]

#: ``twostep`` writes scratch.tmp inside; ``step`` writes it on the
#: surface.  The pair is reported on the later name.
INTERNAL_FIRST = [("define", "v1", "d0", "d1", "twostep"), ("query",)]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=operations,
    backend=st.sampled_from(("memory", "sqlite", "filetree")),
)
# A surface writer named later races the internal one: a cold solve
# reports it although its own fact is bottom.
@example(
    ops=INTERNAL_FIRST + [("define", "v2", "scratch.tmp", "d4", "step")],
    backend="memory",
)
# A surface writer named earlier gains, then loses, the LFN: the
# internal writer, whose fact never moves, is re-reported both times.
@example(
    ops=INTERNAL_FIRST + [("define", "v0", "scratch.tmp", "d2", "step")],
    backend="memory",
)
@example(
    ops=INTERNAL_FIRST
    + [
        ("define", "v0", "scratch.tmp", "d2", "step"),
        ("query",),
        ("define", "v0", "d5", "d2", "step"),
    ],
    backend="memory",
)
# A typed producer feeds a typed formal inside a compound body.
@example(
    ops=[
        ("define", "v0", "d1", "d0", "typed"),
        ("define", "v1", "d2", "d1", "wrap"),
    ],
    backend="memory",
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


def stripped(diagnostics) -> list:
    """Code, severity, object and message, line numbers left out."""
    return sorted(
        (d.code, str(d.severity), d.obj, re.sub(r" \(line \d+\)", "", d.message))
        for d in diagnostics
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=operations,
    backend=st.sampled_from(("memory", "sqlite", "filetree")),
)
# Two derivations feeding each other, then one of them replaced.
@example(
    ops=CYCLE + [("query",), ("define", "v1", "d3", "d1", "step")],
    backend="memory",
)
# The writer of a reader's input is redefined to a typed target: what
# VDG105 infers for the reader changes, with no dataset event.
@example(
    ops=[
        ("define", "v1", "d1", "d2", "step"),
        ("define", "v2", "d3", "d1", "typed"),
        ("query",),
        ("define", "v1", "d1", "d2", "typed"),
    ],
    backend="memory",
)
def test_live_lint_equals_a_fresh_lint_and_the_export_lint(ops, backend):
    """Any mutation schedule, with live lints between the mutations,
    leaves the live lint byte-identical to a fresh analyzer's, and
    equal to the export path's once line numbers are stripped."""
    with open_catalog(backend) as catalog:
        catalog.define(BASE_VDL)
        linter = Linter()

        def query() -> None:
            linter.lint_catalog(catalog, incremental=True)
            catalog.live_analyzer().diagnostics()

        driver = Driver(catalog, query=query)
        for op in ops:
            driver.apply(op)
        live = linter.lint_catalog(catalog, incremental=True).diagnostics
        fresh = IncrementalAnalyzer(catalog)
        try:
            cold = sorted(fresh.lint("<workspace>"), key=Diagnostic.sort_key)
        finally:
            fresh.close()
        assert rendered(live) == rendered(cold)
        assert stripped(live) == stripped(linter.lint_catalog(catalog).diagnostics)


# -- differential: the engine's tables against a sweep of a cold graph -------

#: :data:`CYCLE` executed, materialized, then stale at the root and
#: solved that way: every pass now carries facts around a cycle.
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
    order, again and again until a whole sweep changes nothing.  A fact
    equal to the pass's bottom is dropped, as the engine never stores
    one; since the sweep seeds every node, matching it also proves a
    sparse full solve's seeds complete."""
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
                if facts[kind].get(name, pass_.bottom) != new:
                    facts[kind][name] = new
                    moved = True
    for table in facts:
        for name in [n for n, fact in table.items() if fact == pass_.bottom]:
            del table[name]
    return facts


def assert_tables_are_the_naive_fixpoint(live, catalog) -> None:
    """Both the live analyzer's tables and a cold analyzer's (one full
    solve from the passes' seeds) equal the naive sweep."""
    live.diagnostics()
    cold = IncrementalAnalyzer(catalog)
    try:
        cold.diagnostics()
        cold_graph = DerivationGraph.from_catalog(catalog)
        for state in live._states.values():
            pass_ = state.pass_
            expected = naive_tables(pass_, cold_graph, live.model)
            assert state.facts == expected, pass_.name
            assert cold._states[pass_.name].facts == expected, pass_.name
            # Nothing is kept for a kind the pass has no transfer for,
            # and nothing reported for one it has no report for.
            for table, cache, transfer, report in zip(
                state.facts,
                state.reports,
                (pass_.transfer_dataset, pass_.transfer_derivation),
                (pass_.report_dataset, pass_.report_derivation),
            ):
                assert transfer is not None or not table
                assert report is not None or not cache
    finally:
        cold.close()


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


@pytest.mark.parametrize("tr", ("step", "twostep"))
def test_a_cycle_formed_by_redefinitions_drains(tr):
    """A cycle d2 -> v1 -> d3 -> v0 -> d2 closed by redefining ``v0``
    twice: the facts the old ``v0`` supported must not keep each other
    up around the new cycle."""
    catalog = MemoryCatalog()
    catalog.define(BASE_VDL)
    live = IncrementalAnalyzer(catalog)
    try:
        driver = Driver(catalog, query=live.diagnostics)
        for op in STALE_CYCLE + [
            ("define", "v0", "d2", "d0", tr),
            ("define", "v1", "d3", "d2", tr),
            ("query",),
            ("define", "v0", "d0", "d0", tr),
            ("define", "v0", "d2", "d3", tr),
        ]:
            driver.apply(op)
        assert_tables_are_the_naive_fixpoint(live, catalog)
    finally:
        live.close()
