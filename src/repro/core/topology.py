"""The one topological walk, and the one closure walk.

Every ordered pass over a DAG — a plan's order, width and depth, its
Frontier's counts, the derivation graph's order and depth, the
estimator's rounds (§5.3), CPM slack — reads :func:`kahn_levels`.  The
walk runs over dense integer ids: node ``i`` is the ``i``-th name in
name order, so ascending ids are name order, and edges are CSR arrays
(``targets[offsets[i]:offsets[i + 1]]`` are node ``i``'s edges).  A
:class:`~repro.planner.dag.Plan` keeps its edges in that form; a
caller with a name map goes through :func:`dependency_counts`.  Both
walks are iterative: chains far past the recursion limit are fine.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
from operator import sub
from typing import (
    Callable,
    Collection,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

from repro.errors import CycleError

Node = TypeVar("Node", bound=Hashable)


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
    names, missing, offsets, targets = dependency_counts(deps)
    return [
        [names[node] for node in level]
        for level in kahn_levels(
            names, missing, offsets, targets, error, prefix
        )
    ]


def dependency_counts(
    deps: Mapping[str, Collection[str]],
) -> tuple[list[str], array, array, array]:
    """The walk's template over a name map: the names in name order
    (a node's id is its index), per id how many predecessors it waits
    for, and the CSR edges from each node to the nodes waiting for it.
    Predecessors that are not keys are no edge."""
    names = sorted(deps)
    (offsets, _), released = name_edges(names, deps)
    return (names, degrees(offsets), *released)


def name_edges(
    names: Sequence[str], deps: Mapping[str, Iterable[str]]
) -> tuple[tuple[array, array], tuple[array, array]]:
    """:func:`edges` over ``names`` (given in name order: a name's id is
    its index), each node's row the ids of its predecessors in
    ``deps``.  A name ``deps`` lacks has none, and a predecessor that
    is not among ``names`` is no edge."""
    ids = dict(zip(names, range(len(names))))
    return edges(
        [ids[pred] for pred in deps.get(name, ()) if pred in ids]
        for name in names
    )


def edges(
    rows: Iterable[Iterable[int]],
) -> tuple[tuple[array, array], tuple[array, array]]:
    """CSR ``(offsets, targets)`` of ``rows`` (row ``i`` holds node
    ``i``'s edges; read one at a time), and of the reversed edges,
    each reversed row in ascending id order."""
    offsets = array("i", [0])
    targets = array("i")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    if not targets:  # no edges, as in most small plans: nothing to sort
        reverse = array("i", bytes(4 * len(offsets))), array("i")
        return (offsets, targets), reverse
    return (offsets, targets), _reversed(offsets, targets)


def _reversed(offsets: array, targets: array) -> tuple[array, array]:
    """The CSR of the reversed edges (a counting sort by target)."""
    count = len(offsets) - 1
    tally = array("i", bytes(4 * count))
    for target in targets:
        tally[target] += 1
    starts = array("i", accumulate(tally, initial=0))
    sources = chain.from_iterable(map(repeat, range(count), degrees(offsets)))
    reverse = array("i", bytes(4 * len(targets)))
    fill = starts[:-1]
    for source, target in zip(sources, targets):
        reverse[fill[target]] = source
        fill[target] += 1
    return starts, reverse


def degrees(offsets: array) -> array:
    """Per node, the length of its row."""
    return array("i", map(sub, offsets[1:], offsets))


def kahn_levels(
    names: Sequence[str],
    missing: array,
    offsets: array,
    targets: array,
    error: type[CycleError] = CycleError,
    prefix: str = "dependency cycle through",
) -> Iterator[list[int]]:
    """:func:`topological_levels` over ids, one level at a time (a
    cycle raises after the levels before it).  ``missing`` holds each
    node's count of unplaced predecessors and is consumed; ``offsets``
    and ``targets`` lead from a node to the nodes waiting for it;
    ``names`` only renders the error."""
    level = [node for node, count in enumerate(missing) if not count]
    placed = 0
    while level:
        yield level
        placed += len(level)
        released: list[int] = []
        for node in level:
            for child in targets[offsets[node]:offsets[node + 1]]:
                count = missing[child] - 1
                missing[child] = count
                if not count:
                    released.append(child)
        released.sort()
        level = released
    if placed < len(missing):
        stuck = [names[node] for node, count in enumerate(missing) if count]
        raise error(f"{prefix} {stuck[:6]}")


def reachable(
    successors: Callable[[Node], Iterable[Node]], seeds: Iterable[Node]
) -> set[Node]:
    """The closure of ``seeds`` under ``successors`` (seeds included)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for node in successors(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen
