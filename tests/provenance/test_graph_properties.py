"""Property-based tests on derivation-graph invariants (hypothesis).

Random layered DAGs are generated at the derivation level; the
invariants checked are the ones every provenance feature relies on:
topological order respects all edges, ancestry/descent are duals,
target expansion is a closed subgraph, and invalidation is monotone.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.derivation import DatasetArg, Derivation
from repro.core.naming import VDPRef
from repro.provenance.graph import DerivationGraph, dataset_node
from repro.provenance.invalidation import invalidated_by


@st.composite
def layered_graphs(draw) -> DerivationGraph:
    """A random acyclic derivation graph in layers."""
    layer_count = draw(st.integers(2, 5))
    per_layer = draw(st.integers(1, 4))
    graph = DerivationGraph()
    previous: list[str] = []
    index = 0
    for layer in range(layer_count):
        current = []
        for _ in range(per_layer):
            output = f"d{index}"
            actuals: dict[str, DatasetArg] = {
                "o": DatasetArg(output, "output")
            }
            if previous:
                fanin = draw(st.integers(1, min(3, len(previous))))
                inputs = draw(
                    st.lists(
                        st.sampled_from(previous),
                        min_size=fanin,
                        max_size=fanin,
                        unique=True,
                    )
                )
                for k, name in enumerate(inputs):
                    actuals[f"i{k}"] = DatasetArg(name, "input")
            graph.add_derivation(
                Derivation(
                    name=f"dv{index}",
                    transformation=VDPRef("t", kind="transformation"),
                    actuals=actuals,
                )
            )
            current.append(output)
            index += 1
        previous = previous + current
    return graph


@settings(max_examples=50, deadline=None)
@given(layered_graphs())
def test_topological_order_respects_edges(graph):
    order = graph.topological_order()
    position = {node: i for i, node in enumerate(order)}
    for node in order:
        for succ in graph.successors(node):
            assert position[node] < position[succ]
    assert len(order) == len(graph)


@settings(max_examples=50, deadline=None)
@given(layered_graphs())
def test_ancestors_descendants_duality(graph):
    nodes = graph.nodes()
    for node in nodes[:10]:
        for ancestor in graph.ancestors(node):
            assert node in graph.descendants(ancestor)


@settings(max_examples=50, deadline=None)
@given(layered_graphs())
def test_required_for_is_closed(graph):
    """Every input of every step in the expansion is either produced
    inside the expansion or a source of the full graph."""
    for sink in sorted(graph.sink_datasets())[:3]:
        sub = graph.required_for(sink)
        produced = {
            out
            for name in sub.derivation_names()
            for out in sub.derivation(name).outputs()
        }
        assert sink in produced
        for name in sub.derivation_names():
            for inp in sub.derivation(name).inputs():
                assert inp in produced or not graph.predecessors(
                    dataset_node(inp)
                )


@settings(max_examples=50, deadline=None)
@given(layered_graphs())
def test_invalidation_monotone(graph):
    """More bad roots can never shrink the blast radius."""
    datasets = graph.dataset_names()
    small = invalidated_by(graph, bad_datasets=datasets[:1])
    large = invalidated_by(graph, bad_datasets=datasets[:2])
    assert small.tainted_datasets <= large.tainted_datasets
    assert small.rerun_derivations <= large.rerun_derivations


@settings(max_examples=50, deadline=None)
@given(layered_graphs())
def test_invalidation_is_downstream_closed(graph):
    """Everything downstream of a tainted dataset is tainted too."""
    datasets = graph.dataset_names()
    report = invalidated_by(graph, bad_datasets=datasets[:1])
    for name in report.tainted_datasets:
        downstream = graph.downstream_datasets(name)
        assert downstream <= report.tainted_datasets
