"""What a plan and its frontier cost per step.

A plan keeps its steps as columns over dense ids (names, derivations,
transformations, a cpu array, output-size tuples, CSR dependency
edges) and a frontier keeps one count array and one state byte per
step.  This pins that: a cold incremental plan of a 3 000-derivation
canonical graph plus a drained frontier over it, both kept alive,
stay under a per-step budget of traced bytes (about a third of what a
dict of dependency sets, a stored ``PlanStep`` per step and name-keyed
frontier state cost).
"""

import gc
import tracemalloc

from repro.catalog.memory import MemoryCatalog
from repro.planner.dag import Frontier, Planner
from repro.planner.request import MaterializationRequest
from repro.workloads.canonical import generate_graph

NODES = 3000
#: Traced bytes per plan step, planner cache and drained frontier included.
BUDGET = 350


def test_a_plan_and_its_drained_frontier_fit_the_budget():
    catalog = MemoryCatalog()
    info = generate_graph(
        catalog, nodes=NODES, layers=25, max_fanin=3, seed=7, fast=True
    )
    catalog.derivation_graph()
    request = MaterializationRequest(
        targets=tuple(sorted(info.sink_datasets)), reuse="never"
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        plan = Planner(catalog, incremental=True).plan(request)
        frontier = Frontier(plan)
        drained = 0
        while ready := frontier.ready():
            for name in ready:
                frontier.complete(name)
                drained += 1
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(plan) == drained == NODES
    assert frontier.exhausted
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert grown / NODES <= BUDGET
