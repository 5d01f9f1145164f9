"""Brute-force enumeration of edge-disjoint collections of upward paths.

One upward path per leaf, pairwise edge-disjoint; counts are split by how
many paths are non-trivial.  This module is deliberately the slow, obviously
correct oracle against the characteristic-polynomial coefficients, so it
never takes the algebraic shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, NotALeaf
from .tree_core import RootedTree

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class CollectionCount:
    """counts[k] = number of collections with exactly k non-trivial paths."""

    counts: tuple[int, ...]
    total: int
    witnesses: Optional[tuple[tuple[int, ...], ...]] = None


def upward_paths(tree: RootedTree, v: int) -> int:
    """Number of upward paths from a leaf at level l, namely l + 1 (the
    trivial path included)."""
    if v < 0 or v >= tree.n_vertices or tree.children[v]:
        raise NotALeaf(f"{v} is not a leaf")
    return tree.level[v] + 1


def count_collections(tree: RootedTree, budget: int = DEFAULT_BUDGET,
                      want_witnesses: bool = False) -> CollectionCount:
    """Exhaustive scan of the per-leaf upward-path choices.

    A path from a leaf is encoded by the number of edges ascended; its edge
    set is a bitmask keyed by child endpoints, so disjointness is one AND.
    Leaves are visited in leaf_order, which is depth-first, so conflicts
    surface early and most of the Cartesian product is pruned.

    Witnesses, when requested, are tuples of ascent counts in leaf_order.
    """
    n = tree.n_leaves
    size = 1
    for v in tree.leaf_order:
        size *= tree.level[v] + 1
        if size > budget:
            raise BudgetExceeded(size)

    # options[i][j] = bitmask of the first j edges going up from leaf i
    options: list[list[int]] = []
    for v in tree.leaf_order:
        masks = [0]
        w = v
        mask = 0
        while tree.parent[w] is not None:
            mask |= 1 << w
            masks.append(mask)
            w = tree.parent[w]
        options.append(masks)

    counts = [0] * (n + 1)
    witnesses: list[tuple[int, ...]] = []
    ascent = [0] * n

    def descend(i: int, used: int, nontrivial: int) -> None:
        if i == n:
            counts[nontrivial] += 1
            if want_witnesses:
                witnesses.append(tuple(ascent))
            return
        for j, mask in enumerate(options[i]):
            if used & mask:
                continue
            ascent[i] = j
            descend(i + 1, used | mask, nontrivial + (1 if j else 0))

    descend(0, 0, 0)
    return CollectionCount(counts=tuple(counts), total=sum(counts),
                           witnesses=tuple(witnesses) if want_witnesses else None)
