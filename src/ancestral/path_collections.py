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
``exact_charpoly.char_poly``, against which they are checked.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import BudgetExceeded, NotALeaf
from .exact_charpoly import _poly_mul
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


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    """a + b for lowest-first coefficient lists of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return out


def count_by_edge_states(tree: RootedTree) -> CollectionCount:
    """The counts of ``count_collections``, from the states of the edges.

    Each edge carries at most one path, so the choices below a vertex v
    split by the edge above v: free[v] counts those that leave it unused,
    up[v] those in which one path runs up through it, each as a polynomial
    in z, where z marks a non-trivial path.  A leaf has free = 1 and up = z.
    At an internal vertex, with g_c = free[c] + up[c] for each child c,
    every path that arrives at v stops there, or exactly one goes on:

        free[v] = prod_c g_c,    up[v] = sum_c up[c] prod_{c' != c} g_c'.

    Both are folded over the children in one pass that keeps the running
    product, iteratively, so depth is unbounded and no budget is needed.
    The root has no edge above it, so the counts are free[root].
    """
    children, root = tree.children, tree.root
    free: list = [None] * tree.n_vertices
    up: list = [None] * tree.n_vertices
    for v in reversed(tree.preorder):
        kids = children[v]
        if not kids:
            free[v], up[v] = [1], [0, 1]
            continue
        # fold the children in one at a time: the choices below two
        # siblings with (F1, U1) and (F2, U2) give (F1 F2, U1 F2 + F1 U2),
        # where F is the product of the g; the root's up is never read
        c = kids[0]
        free_acc, up_acc = _poly_add(free[c], up[c]), up[c]
        for c in kids[1:]:
            g = _poly_add(free[c], up[c])
            if v != root:
                up_acc = _poly_add(_poly_mul(up_acc, g),
                                   _poly_mul(free_acc, up[c]))
            free_acc = _poly_mul(free_acc, g)
        free[v], up[v] = free_acc, up_acc
        for c in kids:  # children are done with; free their polynomials
            free[c] = up[c] = None
    counts = free[root]
    counts += [0] * (tree.n_leaves + 1 - len(counts))
    return CollectionCount(counts=tuple(counts), total=sum(counts))
