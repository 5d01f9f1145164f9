"""Bound quantities for the ancestral spectral radius and their verdicts.

Every bound quantity is kept as an exact integer or rational and comes from
one O(V) pass over the tree, never from the matrix: with k_e the number of
leaves below edge e, C = I_p I_p^T gives row sums as sums of k_e along root
paths, the entry sum q = sum k_e^2 and the terminal Wiener index
sum k_e (L - k_e).  Only the spectral radius needs C, built once inside
``spectral_radius``.  The final comparison of each bound against that
numeric rho uses floats, with the margin BOUND_TOL.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotALeaf, SingleVertexTree
from .spectral import DEFAULT_TOL, spectral_radius
from .tree_core import RootedTree, leaf_counts, structural_stats

BOUND_TOL = 1e-7
EQUALITY_WINDOW = 1e-6


def _distances_from(tree: RootedTree, source: int) -> list[int]:
    """Breadth-first distances in the underlying undirected tree."""
    dist = [-1] * tree.n_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        neighbours = list(tree.children[v])
        if tree.parent[v] is not None:
            neighbours.append(tree.parent[v])
        for w in neighbours:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def leaf_distance_sum(tree: RootedTree, v: int) -> int:
    """Sum of distances from v to every leaf."""
    dist = _distances_from(tree, v)
    return sum(dist[w] for w in tree.leaf_order)


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


def _row_sums(tree: RootedTree, k: list[int]) -> list[int]:
    """Row sums of C in leaf_order, from the edge leaf counts k."""
    parent = tree.parent
    path = [0] * tree.n_vertices
    for v in tree.preorder[1:]:
        path[v] = path[parent[v]] + k[v]
    return [path[v] for v in tree.leaf_order]


def _wiener(k: list[int], n_leaves: int) -> int:
    return sum(x * (n_leaves - x) for x in k)


def total_ancestral_depth(tree: RootedTree, v: int) -> int:
    """Row sum of v's row of the ancestral matrix: sum over leaves w of the
    ancestral level of v and w, i.e. the sum of k_e over the edges on v's
    root path."""
    if v < 0 or v >= tree.n_vertices or tree.children[v]:
        raise NotALeaf(f"{v} is not a leaf")
    k = _edge_leaf_counts(tree)
    total = 0
    while tree.parent[v] is not None:
        total += k[v]
        v = tree.parent[v]
    return total


def terminal_wiener(tree: RootedTree) -> int:
    """Sum of pairwise distances between leaves: each edge e lies on the
    path of k_e (L - k_e) leaf pairs."""
    return _wiener(_edge_leaf_counts(tree), tree.n_leaves)


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


@dataclass(frozen=True)
class BoundReport:
    rho: float
    avg_ad: Fraction
    max_ad: int
    tw_bound: Fraction
    height_bound: int
    delta_bound: Fraction
    all_satisfied: bool
    margins: dict[str, float]


def bound_report(tree: RootedTree, tol: float = BOUND_TOL,
                 eig_tol: float = DEFAULT_TOL) -> BoundReport:
    """Evaluate every spectral-radius bound on one tree.

    Bounds: average row sum <= rho <= max row sum; rho >= (sum of leaf
    levels) - (terminal Wiener index)/(leaf count), which is the same
    rational as the average row sum; rho >= height; rho >= (L-1)/(Delta-1)
    for Delta >= 2.  Trees where the maximum outdegree is below 2 carry a
    vacuous degree bound, reported as 0.
    """
    if tree.n_vertices == 1:
        raise SingleVertexTree("bounds are vacuous on a single vertex")
    stats = structural_stats(tree)
    k = _edge_leaf_counts(tree)
    row_sums = _row_sums(tree, k)
    avg_ad = Fraction(sum(row_sums), stats.L)
    max_ad = max(row_sums)
    tw_bound = (Fraction(stats.D_root)
                - Fraction(_wiener(k, stats.L), stats.L))
    if tw_bound != avg_ad:
        raise AssertionError("the two lower-bound derivations disagree")
    height_bound = stats.h
    delta_bound = (Fraction(stats.L - 1, stats.delta - 1)
                   if stats.delta >= 2 else Fraction(0))
    rho = spectral_radius(tree, eig_tol).rho
    margins = {
        "avg_ad": rho - float(avg_ad),
        "max_ad": float(max_ad) - rho,
        "tw_bound": rho - float(tw_bound),
        "height": rho - float(height_bound),
        "delta": rho - float(delta_bound),
    }
    all_satisfied = all(m >= -tol for m in margins.values())
    return BoundReport(rho=rho, avg_ad=avg_ad, max_ad=max_ad,
                       tw_bound=tw_bound, height_bound=height_bound,
                       delta_bound=delta_bound, all_satisfied=all_satisfied,
                       margins=margins)


def is_complete_dary(tree: RootedTree) -> bool:
    """All internal vertices have the same outdegree >= 2 and all leaves
    share one level."""
    degs = {len(c) for c in tree.children if c}
    if len(degs) != 1 or min(degs) < 2:
        return False
    levels = {tree.level[v] for v in tree.leaf_order}
    return len(levels) == 1


def delta_equality_holds(tree: RootedTree, window: float = EQUALITY_WINDOW,
                         eig_tol: float = DEFAULT_TOL) -> bool:
    """Whether rho equals (L-1)/(Delta-1) within the clustering window.
    Only meaningful when the maximum outdegree is at least 2."""
    stats = structural_stats(tree)
    if stats.delta < 2:
        return False
    bound = Fraction(stats.L - 1, stats.delta - 1)
    return abs(spectral_radius(tree, eig_tol).rho - float(bound)) <= window
