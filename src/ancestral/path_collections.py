"""Edge-disjoint collections of upward paths, counted two ways.

One upward path per leaf, pairwise edge-disjoint; counts are split by how
many paths are non-trivial.  The paper reads these counts as the
coefficients gamma_k of det(xI - C(T)).  Two routes count them:

* ``count_by_edge_states`` is the fast route, one bottom-up fold over the
  two states of each edge (unused, or carrying one path up);
* ``count_collections`` is the slow, obviously correct oracle: it tries
  every leaf's choice of ascent and checks disjointness, never taking a
  shortcut, within a budget on the number of choices.  No command calls
  it; the tests check the fast route against it.

Neither reads the characteristic polynomial, so both are independent of
``exact_charpoly.char_poly``, against which they are checked; the fast
route shares only the children fold ``exact_charpoly._fold`` with it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import BudgetExceeded, NotALeaf
from .exact_charpoly import _fold, _poly_add
from .tree_core import RootedTree

DEFAULT_BUDGET = 10 ** 7


class CollectionCount(NamedTuple):
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


def count_by_edge_states(tree: RootedTree) -> CollectionCount:
    """The counts of ``count_collections``, from the states of the edges.

    Each edge carries at most one path, so the choices below a vertex v
    split by the edge above v: free[v] counts those that leave it unused,
    up[v] those in which one path runs up through it, each as a polynomial
    in z, where z marks a non-trivial path.  A leaf has free = 1 and up = z.
    At an internal vertex, with g_c = free[c] + up[c] for each child c,
    every path that arrives at v stops there, or exactly one goes on:

        free[v] = prod_c g_c,    up[v] = sum_c up[c] prod_{c' != c} g_c'.

    ``exact_charpoly._fold`` folds both, with no depth limit and no budget;
    the root has no edge above it, so the counts are free[root].
    """
    counts = _fold(tree, ([1], [0, 1]), _poly_add)
    counts += [0] * (tree.n_leaves + 1 - len(counts))
    return CollectionCount(counts=tuple(counts), total=sum(counts))
