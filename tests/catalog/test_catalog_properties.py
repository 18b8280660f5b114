"""Property-based tests on catalog round-trip fidelity (hypothesis).

Random schema objects must survive the store/fetch cycle of every
backend bit-for-bit (as observed through their dict forms), snapshots
must transport whole catalogs losslessly, and the live derivation
graph must equal a cold build after any sequence of writes.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import DatasetArg, Derivation
from repro.core.descriptors import FileDescriptor, VirtualDescriptor
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.core.naming import VDPRef
from repro.core.replica import Replica
from repro.core.types import DatasetType
from repro.provenance.graph import DerivationGraph
from tests.provenance.test_graphcache import edges

name = st.from_regex(r"[a-z][a-z0-9_.]{0,14}", fullmatch=True)
scalar = st.one_of(
    st.text(
        alphabet=st.characters(codec="ascii", min_codepoint=32,
                               exclude_characters='"\\'),
        max_size=10,
    ),
    st.integers(-1_000_000, 1_000_000),
    st.booleans(),
)
attributes = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_.]{0,10}", fullmatch=True),
    scalar,
    max_size=4,
)


@st.composite
def datasets(draw) -> Dataset:
    descriptor = (
        FileDescriptor(path=draw(name), size=draw(st.integers(0, 10**9)))
        if draw(st.booleans())
        else VirtualDescriptor(size_hint=draw(st.none() | st.integers(0, 10**6)))
    )
    return Dataset(
        name=draw(name),
        dataset_type=DatasetType(
            content=draw(st.sampled_from(["CMS", "SDSS", "Dataset-content"]))
        ),
        descriptor=descriptor,
        attributes=draw(attributes),
        producer=draw(st.none() | name),
    )


@st.composite
def derivations(draw) -> Derivation:
    actual_names = draw(
        st.lists(name, min_size=1, max_size=4, unique=True)
    )
    actuals = {}
    for i, formal in enumerate(actual_names):
        if draw(st.booleans()):
            actuals[formal] = draw(
                st.text(
                    alphabet=st.characters(
                        codec="ascii", min_codepoint=32,
                        exclude_characters='"\\',
                    ),
                    max_size=8,
                )
            )
        else:
            actuals[formal] = DatasetArg(
                dataset=f"{draw(name)}{i}",
                direction=draw(st.sampled_from(["input", "output", "inout"])),
                temporary=draw(st.booleans()),
            )
    return Derivation(
        name=draw(name),
        transformation=VDPRef(draw(name), kind="transformation"),
        actuals=actuals,
        environment=draw(
            st.dictionaries(
                st.from_regex(r"[A-Z]{1,8}", fullmatch=True),
                st.from_regex(r"[a-z0-9]{0,8}", fullmatch=True),
                max_size=3,
            )
        ),
        attributes=draw(attributes),
    )


@st.composite
def invocations(draw) -> Invocation:
    return Invocation(
        derivation_name=draw(name),
        status=draw(st.sampled_from(["success", "failure", "aborted"])),
        start_time=draw(st.floats(0, 1e9, allow_nan=False)),
        context=ExecutionContext.make(
            site=draw(name),
            host=draw(name),
            environment=draw(
                st.dictionaries(
                    st.from_regex(r"[A-Z]{1,6}", fullmatch=True),
                    st.from_regex(r"[a-z0-9]{0,6}", fullmatch=True),
                    max_size=2,
                )
            ),
        ),
        usage=ResourceUsage(
            cpu_seconds=draw(st.floats(0, 1e6, allow_nan=False)),
            wall_seconds=draw(st.floats(0, 1e6, allow_nan=False)),
            bytes_read=draw(st.integers(0, 10**12)),
            bytes_written=draw(st.integers(0, 10**12)),
        ),
        exit_code=draw(st.integers(-128, 255)),
        error=draw(st.none() | st.from_regex(r"[a-z ]{0,20}", fullmatch=True)),
    )


BACKENDS = ("memory", "sqlite")


def make_catalog(kind):
    return MemoryCatalog() if kind == "memory" else SQLiteCatalog()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets(), st.sampled_from(BACKENDS))
def test_dataset_round_trip(ds, kind):
    catalog = make_catalog(kind)
    catalog.add_dataset(ds)
    assert catalog.get_dataset(ds.name).to_dict() == ds.to_dict()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(derivations(), st.sampled_from(BACKENDS))
def test_derivation_round_trip(dv, kind):
    catalog = make_catalog(kind)
    catalog.add_derivation(dv, validate=False, auto_declare=False)
    assert catalog.get_derivation(dv.name).to_dict() == dv.to_dict()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations(), st.sampled_from(BACKENDS))
def test_invocation_round_trip(inv, kind):
    catalog = make_catalog(kind)
    catalog.add_invocation(inv)
    assert (
        catalog.get_invocation(inv.invocation_id).to_dict() == inv.to_dict()
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets())
def test_replica_round_trip(ds):
    catalog = MemoryCatalog()
    rep = Replica(
        dataset_name=ds.name,
        location="anl",
        size=ds.size_estimate(),
        digest="aa" * 16,
    )
    catalog.add_replica(rep)
    assert catalog.get_replica(rep.replica_id).to_dict() == rep.to_dict()
    assert [r.replica_id for r in catalog.replicas_of(ds.name)] == [
        rep.replica_id
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(derivations(), min_size=1, max_size=5,
             unique_by=lambda d: d.name)
)
def test_snapshot_transport_lossless(dvs):
    source = MemoryCatalog()
    for dv in dvs:
        source.add_derivation(dv, validate=False)
    destination = SQLiteCatalog()
    destination.import_snapshot(source.export_snapshot())
    assert destination.counts() == source.counts()
    for dv in dvs:
        assert destination.get_derivation(dv.name).to_dict() == dv.to_dict()
    # Relationship indexes rebuilt identically.
    for dv in dvs:
        for output in dv.outputs():
            assert {d.name for d in destination.producers_of(output)} == {
                d.name for d in source.producers_of(output)
            }


# -- the live derivation graph against a cold build -------------------------
#
# Small name pools, so random steps collide: derivations get replaced
# with different edges, removed, re-added, and datasets are shared.

pooled_derivations = st.builds(
    lambda name, tr, args: Derivation(
        name=name,
        transformation=VDPRef(tr, kind="transformation"),
        actuals={
            formal: DatasetArg(dataset=dataset, direction=direction)
            for formal, (dataset, direction) in args.items()
        },
    ),
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.sampled_from(["t1", "t2"]),
    st.dictionaries(
        st.sampled_from(["x", "y", "z"]),
        st.tuples(
            st.sampled_from(["p", "q", "r", "s", "t"]),
            st.sampled_from(["input", "output", "inout"]),
        ),
        min_size=1,
    ),
)
writes = st.one_of(
    st.tuples(st.just("put"), pooled_derivations),
    st.tuples(st.just("remove"), st.sampled_from(["a", "b", "c", "d", "e"])),
)
steps = st.one_of(
    writes,
    st.tuples(
        st.sampled_from(["bulk", "abort"]), st.lists(writes, max_size=4)
    ),
    st.tuples(st.just("import"), st.lists(pooled_derivations, max_size=4)),
)


@contextmanager
def open_catalog(kind):
    if kind == "filetree":
        with tempfile.TemporaryDirectory() as root:
            yield FileTreeCatalog(Path(root) / "vdc")
    else:
        yield make_catalog(kind)


def apply_write(catalog, write):
    op, arg = write
    if op == "put":
        catalog.add_derivation(arg, replace=True, validate=False)
    elif catalog.has_derivation(arg):
        catalog.remove_derivation(arg)


def apply_step(catalog, step):
    op, arg = step
    if op == "bulk":
        with catalog.bulk():
            for write in arg:
                apply_write(catalog, write)
    elif op == "abort":
        with pytest.raises(ZeroDivisionError):
            with catalog.transaction():
                for write in arg:
                    apply_write(catalog, write)
                raise ZeroDivisionError
    elif op == "import":
        source = MemoryCatalog()
        for dv in arg:
            source.add_derivation(dv, replace=True, validate=False)
        catalog.import_snapshot(source.export_snapshot())
    else:
        apply_write(catalog, step)


def assert_live_graph_is_cold_graph(catalog):
    live = catalog.derivation_graph()
    cold = DerivationGraph.from_catalog(catalog)
    assert live.nodes() == cold.nodes()
    assert edges(live) == edges(cold)
    stored = list(catalog.derivations())
    for dataset in ["p", "q", "r", "s", "t"]:
        assert [dv.name for dv in catalog.producers_of(dataset)] == [
            dv.name for dv in stored if dataset in dv.outputs()
        ]
        assert [dv.name for dv in catalog.consumers_of(dataset)] == [
            dv.name for dv in stored if dataset in dv.inputs()
        ]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(steps, min_size=1, max_size=8),
    st.sampled_from(("memory", "sqlite", "filetree")),
)
def test_live_graph_equals_cold_build_after_every_step(sequence, kind):
    with open_catalog(kind) as catalog:
        live = catalog.derivation_graph()
        for step in sequence:
            apply_step(catalog, step)
            assert catalog.derivation_graph() is live
            assert_live_graph_is_cold_graph(catalog)
