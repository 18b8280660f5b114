"""Read view of a catalog's live derivation graph.

The graph itself is the catalog's derivation index
(:class:`repro.catalog.index.CatalogIndexes` keeps it current on every
mutation event), so there is nothing here to build, patch or
invalidate: :class:`GraphCache` hands out that one shared object and
reports the counters planners and the benchmark ledger read.
"""

from __future__ import annotations

import weakref

from repro.provenance.graph import DerivationGraph


class GraphCache:
    """``catalog.graph_cache()``: the live graph plus its counters.

    ``misses`` counts builds from storage (catalog open), ``hits``
    every :meth:`graph` call, ``patches`` the derivations re-linked or
    unlinked by events; ``version`` changes with every structural
    change, so callers can cheaply detect staleness of anything they
    derived from the graph.
    """

    def __init__(self, catalog):
        # The catalog owns this view: a weak back-pointer.
        self._catalog = weakref.ref(catalog)
        self.hits = 0

    def graph(self) -> DerivationGraph:
        """The current graph — shared and always current; read-only."""
        catalog = self._catalog()
        with catalog._lock:
            self.hits += 1
            return catalog._indexes.graph

    def stats(self) -> dict[str, int]:
        indexes = self._catalog()._indexes
        return {
            "hits": self.hits,
            "misses": indexes.graph_builds,
            "patches": indexes.graph_patches,
            "version": indexes.graph_builds + indexes.graph_patches,
        }
