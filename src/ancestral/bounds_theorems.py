"""Bound quantities for the ancestral spectral radius and their verdicts.

Every bound quantity is kept as an exact integer or rational and comes from
one O(V) pass over the tree's arrays, never from the matrix: with k_e the
number of leaves below edge e, C = I_p I_p^T gives row sums as sums of k_e
along root paths (``tree_core.row_sums``, the same array that
``spectral_radius`` starts each branch from), the entry sum q = sum k_e^2
and the terminal Wiener index sum k_e (L - k_e).  The spectral radius needs
no matrix either: ``spectral_radius`` solves the pivot recurrence of each
branch in O(V) per step.  The final comparison of each bound against that
numeric rho uses floats, with the margin BOUND_TOL.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NotALeaf, SingleVertexTree
from .spectral import _spectral_radius
from .tree_core import RootedTree, _is_vertex, leaf_counts, row_sums

BOUND_TOL = 1e-7
EQUALITY_WINDOW = 1e-6


def _edge_leaf_counts(tree: RootedTree) -> list[int]:
    """k_e for the edge e from each vertex to its parent: the vertex's leaf
    count, or 0 at the root, which has no such edge.

    Since C = I_p I_p^T, every quantity below is a sum over edges: the
    entry sum is sum k_e^2, a leaf's row sum is the sum of k_e along its
    root path, and e separates k_e (L - k_e) pairs of leaves.
    """
    k = leaf_counts(tree)
    k[tree.root] = 0
    return k


def total_ancestral_depth(tree: RootedTree, v: int) -> int:
    """Row sum of v's row of the ancestral matrix: sum over leaves w of the
    ancestral level of v and w, i.e. the sum of k_e over the edges on v's
    root path."""
    if not _is_vertex(tree, v) or tree.children[v]:
        raise NotALeaf(f"{v} is not a leaf")
    return row_sums(tree)[v]


def terminal_wiener(tree: RootedTree) -> int:
    """Sum of pairwise distances between leaves: each edge e lies on the
    path of k_e (L - k_e) leaf pairs."""
    n_leaves = tree.n_leaves
    return sum(k * (n_leaves - k) for k in _edge_leaf_counts(tree))


def q_value(tree: RootedTree) -> int:
    """Sum of all entries of the ancestral matrix, sum of k_e^2 over the
    edges."""
    return sum(k * k for k in _edge_leaf_counts(tree))


def q_recursion_check(tree: RootedTree) -> bool:
    """Branch recursion for the matrix-entry sum: the value for the whole
    tree equals the sum over branches of (branch value + branch leaf count
    squared), recursively down to single vertices.

    The recursion q_v = sum over children c of (q_c + k_c^2), with q = 0 at a
    leaf, is evaluated bottom-up over the preorder, so depth is unbounded.
    """
    children = tree.children
    k = leaf_counts(tree)
    q = [0] * tree.n_vertices
    for v in reversed(tree.preorder):
        q[v] = sum(q[c] + k[c] * k[c] for c in children[v])
    return q[tree.root] == q_value(tree)


class BoundReport(NamedTuple):
    rho: float
    avg_ad: Fraction
    max_ad: int
    tw_bound: Fraction
    height_bound: int
    delta_bound: Fraction
    margins: dict[str, float]
    # per bound, whether its margin is at least -BOUND_TOL
    satisfied: dict[str, bool]

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())

    @property
    def delta_equality(self) -> bool:
        """Whether rho equals the degree bound (L-1)/(Delta-1) within
        EQUALITY_WINDOW; False when the bound is vacuous (Delta < 2)."""
        return (self.delta_bound > 0
                and abs(self.rho - float(self.delta_bound)) <= EQUALITY_WINDOW)


def bound_report(tree: RootedTree) -> BoundReport:
    """Evaluate every spectral-radius bound on one tree.

    Bounds: average row sum <= rho <= max row sum; rho >= (sum of leaf
    levels) - (terminal Wiener index)/(leaf count), which is the same
    rational as the average row sum; rho >= height; rho >= (L-1)/(Delta-1)
    for Delta >= 2.  Trees where the maximum outdegree is below 2 carry a
    vacuous degree bound, reported as 0.  L, the height, Delta and the
    sum of leaf levels are read off the tree's arrays; the row sums are
    derived once, and rho is solved from them; the leaf counts once, in
    ``terminal_wiener``.
    """
    if tree.n_vertices == 1:
        raise SingleVertexTree("bounds are vacuous on a single vertex")
    n_leaves = tree.n_leaves
    leaf_levels = [tree.level[v] for v in tree.leaf_order]
    delta = max(map(len, tree.children))
    row = row_sums(tree)
    leaf_rows = [row[v] for v in tree.leaf_order]
    avg_ad = Fraction(sum(leaf_rows), n_leaves)
    max_ad = max(leaf_rows)
    tw_bound = (Fraction(sum(leaf_levels))
                - Fraction(terminal_wiener(tree), n_leaves))
    if tw_bound != avg_ad:
        raise AssertionError("the two lower-bound derivations disagree")
    height_bound = max(leaf_levels)
    delta_bound = (Fraction(n_leaves - 1, delta - 1)
                   if delta >= 2 else Fraction(0))
    rho = _spectral_radius(tree, row).rho
    margins = {
        "avg_ad": rho - float(avg_ad),
        "max_ad": float(max_ad) - rho,
        "tw_bound": rho - float(tw_bound),
        "height": rho - float(height_bound),
        "delta": rho - float(delta_bound),
    }
    return BoundReport(rho=rho, avg_ad=avg_ad, max_ad=max_ad,
                       tw_bound=tw_bound, height_bound=height_bound,
                       delta_bound=delta_bound, margins=margins,
                       satisfied={key: m >= -BOUND_TOL
                                  for key, m in margins.items()})


def is_complete_dary(tree: RootedTree) -> bool:
    """All internal vertices have the same outdegree >= 2 and all leaves
    share one level."""
    degs = {len(c) for c in tree.children if c}
    if len(degs) != 1 or min(degs) < 2:
        return False
    levels = {tree.level[v] for v in tree.leaf_order}
    return len(levels) == 1


def delta_equality_holds(tree: RootedTree) -> bool:
    """Whether rho equals (L-1)/(Delta-1) within EQUALITY_WINDOW, as
    ``BoundReport.delta_equality``; False on a single vertex."""
    return tree.n_vertices > 1 and bound_report(tree).delta_equality
