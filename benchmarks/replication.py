"""Dynamic replication strategies for a high-performance data grid.

Implements the strategy family the paper's planning section leans on
("make decisions to replicate popular datasets and procedures either on
demand and/or via pre-staging [18, 19]" — Ranganathan & Foster's
replication studies).  The model follows those papers: a hierarchical
grid (one tier-0 root that owns all data, tier-1 regional centres,
leaf client sites), clients issue file accesses with skewed popularity
and geographic locality, and a strategy decides where copies live:

* ``none`` — all reads hit the root;
* ``caching`` — the requesting leaf keeps an LRU-bounded local copy;
* ``cascading`` — popular files cascade one tier down the path toward
  the requesting client each time their access count passes a
  threshold at the current holder;
* ``best-client`` — when a file's accesses pass the threshold, a copy
  is pushed to its single most frequent client;
* ``cascading-caching`` — cascading plus client-side caching (the
  best performer in [19]).

The REPL benchmark (``test_bench_replication.py``) reports mean
response time and wide-area bytes per strategy; the expected shape
(cascading/caching beat none under skewed access) mirrors the cited
results.  This is experiment substrate, not part of the planner:
nothing in ``repro`` calls it, so it lives beside the benchmark and its
tests (``test_replication.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import PlanningError
from repro.grid.network import NetworkTopology
from repro.grid.site import StorageElement

STRATEGIES = ("none", "caching", "cascading", "best-client", "cascading-caching")


@dataclass
class HierarchyConfig:
    """Shape and physics of the simulated hierarchy."""

    tier1_count: int = 4
    leaves_per_tier1: int = 3
    file_count: int = 200
    file_size: int = 1_000_000_000  # 1 GB, as in [19]
    root_bandwidth: float = 20e6  # root <-> tier1
    regional_bandwidth: float = 50e6  # tier1 <-> leaf
    leaf_storage: int = 20_000_000_000
    tier1_storage: int = 100_000_000_000
    replication_threshold: int = 6
    zipf_exponent: float = 1.2
    #: Probability that a client re-draws from its home region's
    #: preferred file subset (geographic locality of interest).
    locality: float = 0.7


@dataclass
class ReplicationResult:
    """Metrics of one simulated access trace under one strategy."""

    strategy: str
    accesses: int
    mean_response_seconds: float
    total_wide_area_bytes: int
    replicas_created: int
    evictions: int

    def row(self) -> tuple:
        return (
            self.strategy,
            self.accesses,
            round(self.mean_response_seconds, 3),
            self.total_wide_area_bytes,
            self.replicas_created,
            self.evictions,
        )


class ReplicationSimulation:
    """One hierarchy + one access trace, replayable per strategy."""

    def __init__(self, config: Optional[HierarchyConfig] = None, seed: int = 7):
        self.config = config or HierarchyConfig()
        self._seed = seed
        cfg = self.config
        self.root = "tier0"
        self.tier1 = [f"tier1-{i}" for i in range(cfg.tier1_count)]
        self.leaves = [
            f"leaf-{i}-{j}"
            for i in range(cfg.tier1_count)
            for j in range(cfg.leaves_per_tier1)
        ]
        self.parent = {self.root: None}
        for i, t1 in enumerate(self.tier1):
            self.parent[t1] = self.root
            for j in range(cfg.leaves_per_tier1):
                self.parent[f"leaf-{i}-{j}"] = t1
        self.network = NetworkTopology(fully_connected=False)
        for t1 in self.tier1:
            self.network.connect(self.root, t1, bandwidth=cfg.root_bandwidth)
        for leaf in self.leaves:
            self.network.connect(
                self.parent[leaf], leaf, bandwidth=cfg.regional_bandwidth
            )
        self.files = [f"file-{k:04d}" for k in range(cfg.file_count)]
        self.trace = self._generate_trace()

    # -- workload -----------------------------------------------------------

    def _generate_trace(self, accesses_per_leaf: int = 50) -> list[tuple[str, str]]:
        """A deterministic (client, file) access trace.

        Popularity is Zipf-like; each region has a preferred slice of
        the file space it draws from with probability ``locality``.
        """
        cfg = self.config
        rng = random.Random(self._seed)
        weights = [1.0 / (rank + 1) ** cfg.zipf_exponent for rank in
                   range(cfg.file_count)]
        trace: list[tuple[str, str]] = []
        slice_size = max(1, cfg.file_count // cfg.tier1_count)
        for leaf in self.leaves:
            region = int(leaf.split("-")[1])
            lo = region * slice_size
            hi = min(cfg.file_count, lo + slice_size)
            region_weights = [
                w if lo <= k < hi else 0.0 for k, w in enumerate(weights)
            ]
            for _ in range(accesses_per_leaf):
                pool = (
                    region_weights
                    if rng.random() < cfg.locality and sum(region_weights)
                    else weights
                )
                file = rng.choices(self.files, weights=pool, k=1)[0]
                trace.append((leaf, file))
        rng.shuffle(trace)
        return trace

    # -- path helpers ------------------------------------------------------------

    def path_to_root(self, node: str) -> list[str]:
        """Nodes from ``node`` up to and including the root."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def _hop_time(self, child: str, size: int) -> float:
        return self.network.transfer_time(size, self.parent[child], child)

    # -- execution --------------------------------------------------------------

    def run(self, strategy: str) -> ReplicationResult:
        """Replay the trace under ``strategy`` and collect metrics."""
        if strategy not in STRATEGIES:
            raise PlanningError(
                f"unknown replication strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        cfg = self.config
        holders: dict[str, set[str]] = {f: {self.root} for f in self.files}
        stores: dict[str, StorageElement] = {}
        for t1 in self.tier1:
            stores[t1] = StorageElement(t1, capacity=cfg.tier1_storage)
        for leaf in self.leaves:
            stores[leaf] = StorageElement(leaf, capacity=cfg.leaf_storage)
        access_counts: dict[tuple[str, str], int] = {}  # (holder,file) -> n
        client_counts: dict[tuple[str, str], int] = {}  # (file,leaf) -> n
        total_seconds = 0.0
        wide_area_bytes = 0
        replicas_created = 0
        clock = 0.0

        def place(file: str, node: str) -> None:
            nonlocal replicas_created
            if node == self.root or node in holders[file]:
                return
            evicted = stores[node].store(file, cfg.file_size, clock)
            for victim in evicted:
                holders[victim].discard(node)
            holders[file].add(node)
            replicas_created += 1

        caching = strategy in ("caching", "cascading-caching")
        cascading = strategy in ("cascading", "cascading-caching")
        best_client = strategy == "best-client"

        for leaf, file in self.trace:
            clock += 1.0
            path = self.path_to_root(leaf)
            # Nearest holder along the path to the root.
            source_index = next(
                i for i, node in enumerate(path) if node in holders[file]
            )
            source = path[source_index]
            if source == leaf:
                stores[leaf].touch(file, clock)
                response = 0.01  # local disk hit
            else:
                response = 0.0
                for i in range(source_index, 0, -1):
                    hop_child = path[i - 1]
                    response += self.network.record_transfer(
                        cfg.file_size, path[i], hop_child
                    )
                    wide_area_bytes += cfg.file_size
                # Intermediate tier nodes do not implicitly keep copies.
            client_counts[(file, leaf)] = client_counts.get((file, leaf), 0) + 1
            access_counts[(source, file)] = (
                access_counts.get((source, file), 0) + 1
            )
            if caching and source != leaf:
                place(file, leaf)
            if cascading and source != leaf:
                if access_counts[(source, file)] >= cfg.replication_threshold:
                    child_toward_client = path[source_index - 1]
                    if child_toward_client != leaf or caching:
                        place(file, child_toward_client)
                    elif child_toward_client in stores:
                        place(file, child_toward_client)
                    access_counts[(source, file)] = 0
            if best_client and source != leaf:
                total_for_file = sum(
                    n for (f, _), n in client_counts.items() if f == file
                )
                if total_for_file >= cfg.replication_threshold:
                    best_leaf = max(
                        (
                            (n, client)
                            for (f, client), n in client_counts.items()
                            if f == file
                        ),
                    )[1]
                    place(file, best_leaf)
                    for key in [
                        k for k in client_counts if k[0] == file
                    ]:
                        client_counts[key] = 0
            total_seconds += response

        evictions = sum(se.evictions for se in stores.values())
        return ReplicationResult(
            strategy=strategy,
            accesses=len(self.trace),
            mean_response_seconds=total_seconds / len(self.trace),
            total_wide_area_bytes=wide_area_bytes,
            replicas_created=replicas_created,
            evictions=evictions,
        )

    def compare(self, strategies: tuple[str, ...] = STRATEGIES) -> list[ReplicationResult]:
        """Run every strategy on the same trace (network stats reset)."""
        results = []
        for strategy in strategies:
            self.network.reset_stats()
            results.append(self.run(strategy))
        return results
