"""The catalog's live derivation graph and its ``graph_cache()`` view.

The contract: ``catalog.derivation_graph()`` is always one and the same
object — the catalog's own producer/consumer index — and is always
structurally equal to a cold ``DerivationGraph.from_catalog`` over the
current catalog.  Nothing is built, patched lazily or subscribed on
demand: asking for the graph costs nothing and changes nothing.
"""

from repro.catalog.memory import MemoryCatalog
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest
from repro.provenance.graph import DerivationGraph
from repro.workloads import canonical


def edges(graph):
    """Order-normalized edge set of a derivation graph."""
    return {
        (node, successor)
        for node in graph.nodes()
        for successor in graph.successors(node)
    }


def chain_catalog(n=6):
    catalog = MemoryCatalog()
    canonical.define_transformations(catalog)
    chunks = ['DV d0->canon0( o=@{output:"ds0"}, tag="t0" );\n']
    for i in range(1, n):
        chunks.append(
            f'DV d{i}->canon1( o=@{{output:"ds{i}"}}, '
            f'i0=@{{input:"ds{i - 1}"}}, tag="t{i}" );\n'
        )
    catalog.define("".join(chunks))
    return catalog


EXTRA = (
    'DV extra->canon1( o=@{output:"extra.out"}, '
    'i0=@{input:"ds2"}, tag="x" );\n'
)


class TestGraphCache:
    def test_second_call_is_a_hit_on_the_same_object(self):
        catalog = chain_catalog()
        cache = catalog.graph_cache()
        first = cache.graph()
        second = cache.graph()
        assert second is first
        assert cache.stats()["misses"] == 0  # nothing was ever built
        assert cache.stats()["hits"] == 2

    def test_added_derivation_is_patched_in(self):
        catalog = chain_catalog()
        cache = catalog.graph_cache()
        before = cache.graph()
        stats = cache.stats()
        catalog.define(EXTRA)
        after = cache.graph()
        assert after is before  # same store, updated in place
        assert cache.stats()["misses"] == stats["misses"]
        assert cache.stats()["patches"] == stats["patches"] + 1
        assert cache.stats()["version"] > stats["version"]
        assert edges(after) == edges(DerivationGraph.from_catalog(catalog))

    def test_removed_derivation_is_patched_out(self):
        catalog = chain_catalog()
        catalog.define(EXTRA)
        graph = catalog.derivation_graph()
        version = catalog.graph_cache().stats()["version"]
        catalog.remove_derivation("extra")
        assert catalog.derivation_graph() is graph
        assert catalog.graph_cache().stats()["version"] > version
        assert edges(graph) == edges(DerivationGraph.from_catalog(catalog))
        # The orphaned output dataset went with its only derivation.
        assert "extra.out" not in graph.dataset_names()

    def test_catalog_accessor_returns_one_cache(self):
        """catalog.graph_cache() is a stable per-catalog view and
        derivation_graph() serves the same index-owned graph."""
        catalog = chain_catalog()
        cache = catalog.graph_cache()
        assert catalog.graph_cache() is cache
        assert catalog.derivation_graph() is cache.graph()
        assert cache.graph() is catalog._indexes.graph

    def test_the_graph_is_the_index_producers_of_reads(self):
        catalog = chain_catalog()
        graph = catalog.derivation_graph()
        for dataset in graph.dataset_names():
            assert [dv.name for dv in catalog.producers_of(dataset)] == sorted(
                graph.producer_names(dataset)
            )
            assert [dv.name for dv in catalog.consumers_of(dataset)] == sorted(
                graph.consumer_names(dataset)
            )

    def test_reading_the_graph_subscribes_nothing(self):
        """A fresh catalog has the same subscribers before and after
        the graph is asked for or planned over."""
        catalog = chain_catalog()
        subscribers = list(catalog._subscribers)
        catalog.derivation_graph()
        catalog.graph_cache().stats()
        Planner(catalog).plan(
            MaterializationRequest(targets=("ds5",), reuse="never")
        )
        assert catalog._subscribers == subscribers

    def test_content_only_replace_resets_the_decoded_derivation(self):
        catalog = chain_catalog()
        graph = catalog.derivation_graph()
        assert graph.derivation("d3").actuals["tag"] == "t3"
        dv = catalog.get_derivation("d3")
        dv.actuals["tag"] = "edited"
        catalog.add_derivation(dv, replace=True)
        assert graph.derivation("d3").actuals["tag"] == "edited"
        assert edges(graph) == edges(DerivationGraph.from_catalog(catalog))
