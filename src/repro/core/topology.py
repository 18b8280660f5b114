"""The one topological walk, and the one closure walk, over name maps.

Every ordered pass over a DAG — a plan's order, width and depth (a
plan memoizes the :func:`dependency_counts` template its Frontier also
starts from), the derivation graph's order and depth, the estimator's
rounds (§5.3), CPM slack — reads :func:`topological_levels`.  Both
walks are iterative: chains far past the recursion limit are fine.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Mapping

from repro.errors import CycleError


def topological_levels(
    deps: Mapping[str, Collection[str]],
    error: type[CycleError] = CycleError,
    prefix: str = "dependency cycle through",
) -> list[list[str]]:
    """Kahn levels of the DAG ``deps`` (node -> its predecessors).

    Level *k* holds the nodes whose longest chain of predecessors has
    *k* links, in name order: the flattened levels are a deterministic
    execution order, the level count is the longest chain, and a level
    is one round of list scheduling.  Predecessors that are not keys
    are ignored.  When nodes sit on or behind a cycle, raises ``error``
    with ``prefix`` and the first six of them in name order.
    """
    return list(kahn_levels(*dependency_counts(deps), error, prefix))


def dependency_counts(
    deps: Mapping[str, Collection[str]],
) -> tuple[dict[str, int], dict[str, list[str]]]:
    """The walk's template: per node, how many predecessors it waits
    for, and the nodes waiting for it (what a Frontier also starts from)."""
    dependents: dict[str, list[str]] = {node: [] for node in deps}
    missing: dict[str, int] = {}
    for node, preds in deps.items():
        count = len(preds)
        for pred in preds:
            try:
                dependents[pred].append(node)
            except KeyError:  # not a node: no edge
                count -= 1
        missing[node] = count
    return missing, dependents


def kahn_levels(
    missing: dict[str, int],
    dependents: Mapping[str, list[str]],
    error: type[CycleError] = CycleError,
    prefix: str = "dependency cycle through",
) -> Iterator[list[str]]:
    """:func:`topological_levels` from a template, one level at a time
    (a cycle raises after the levels before it); consumes ``missing``."""
    level = sorted(node for node, count in missing.items() if not count)
    placed = 0
    while level:
        yield level
        placed += len(level)
        released: list[str] = []
        for node in level:
            for child in dependents[node]:
                count = missing[child] - 1
                missing[child] = count
                if not count:
                    released.append(child)
        released.sort()
        level = released
    if placed < len(missing):
        stuck = sorted(node for node, count in missing.items() if count)
        raise error(f"{prefix} {stuck[:6]}")


def reachable(
    successors: Callable[[str], Iterable[str]], seeds: Iterable[str]
) -> set[str]:
    """The closure of ``seeds`` under ``successors`` (seeds included)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for node in successors(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen
