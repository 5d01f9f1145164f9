"""Shared test fixtures: frozen oracle values and independent re-derivations.

Everything here is deliberately computed by a different route than the
library under test (explicit ancestor chains, BFS distances, counting
recurrences, power iteration), so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from ancestral import (
    RootedTree,
    build_tree,
    by_vertex_count,
    enumerate_class,
)

# Six-leaf worked example: two branches under the root, one holding two
# sibling leaves, the other holding two leaves plus a deeper cherry.
# Vertex numbering chosen so edges sort in the documented order.
EXAMPLE_PARENTS = [None, 2, 0, 2, 0, 4, 4, 4, 7, 7]

EXAMPLE_C_ROWS = (
    (2, 1, 0, 0, 0, 0),
    (1, 2, 0, 0, 0, 0),
    (0, 0, 2, 1, 1, 1),
    (0, 0, 1, 2, 1, 1),
    (0, 0, 1, 1, 3, 2),
    (0, 0, 1, 1, 2, 3),
)

EXAMPLE_INCIDENCE_ROWS = (
    (1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 1, 0),
    (0, 0, 0, 1, 0, 0, 1, 0, 1),
)

_SQRT5 = math.sqrt(5.0)
EXAMPLE_EIGENVALUES = (4.0 + _SQRT5, 3.0, 4.0 - _SQRT5, 1.0, 1.0, 1.0)

# characteristic polynomial, highest degree first
EXAMPLE_CHARPOLY = (1, -14, 71, -172, 215, -134, 33)
EXAMPLE_GAMMA = (1, 14, 71, 172, 215, 134, 33)
EXAMPLE_TOTAL_COLLECTIONS = 640
EXAMPLE_Q = 30
EXAMPLE_TERMINAL_WIENER = 54

BROOM23_CHARPOLY = (1, -9, 15, -7)
CATERPILLAR_CHARPOLYS = {
    1: (1, 0),
    2: (1, -2, 1),
    3: (1, -5, 7, -3),
    4: (1, -9, 23, -23, 8),
}

# rooted trees on n unlabeled vertices, n = 1..10
ROOTED_TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)

# binary (outdegree 2) trees by leaf count, n = 1..8
BINARY_BY_LEAVES = (1, 1, 1, 2, 3, 6, 11, 23)


def example_tree() -> RootedTree:
    return build_tree(EXAMPLE_PARENTS)


@lru_cache(maxsize=None)
def corpus(max_vertices: int) -> tuple[RootedTree, ...]:
    """All rooted trees with at most max_vertices vertices, one per
    isomorphism class."""
    trees = []
    for n in range(1, max_vertices + 1):
        trees.extend(enumerate_class(by_vertex_count(n)))
    return tuple(trees)


def ancestor_chain(tree: RootedTree, v: int) -> list[int]:
    chain = [v]
    while tree.parent[chain[-1]] is not None:
        chain.append(tree.parent[chain[-1]])
    chain.reverse()
    return chain


def lca_level_oracle(tree: RootedTree, u: int, v: int) -> int:
    """LCA level by comparing full root-to-vertex chains."""
    cu, cv = ancestor_chain(tree, u), ancestor_chain(tree, v)
    depth = 0
    while depth < min(len(cu), len(cv)) and cu[depth] == cv[depth]:
        depth += 1
    return depth - 1


def leaf_correspondence(before: RootedTree, after: RootedTree) -> list[tuple[int, int]]:
    """Positions of each shared leaf in the two leaf orders.  Vertex indices
    are stable across the tree operations, so the map is by identity."""
    pos_after = {v: i for i, v in enumerate(after.leaf_order)}
    return [(i, pos_after[v]) for i, v in enumerate(before.leaf_order)
            if v in pos_after]


def bfs_distances(tree: RootedTree, source: int) -> list[int]:
    """Graph distances in the underlying undirected tree."""
    adj = [list(tree.children[v]) for v in range(tree.n_vertices)]
    for v, p in enumerate(tree.parent):
        if p is not None:
            adj[v].append(p)
    dist = [-1] * tree.n_vertices
    dist[source] = 0
    queue = [source]
    for v in queue:
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def rooted_tree_count_oracle(n: int) -> int:
    """Number of rooted trees on n unlabeled vertices via the classic
    divisor-sum convolution, no tree is ever materialized."""
    r = [0, 1]
    for m in range(1, n):
        total = 0
        for k in range(1, m + 1):
            dsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += dsum * r[m + 1 - k]
        r.append(total // m)
    return r[n]


def binary_by_leaves_oracle(n: int) -> int:
    """Unordered binary trees by leaf count via the halving convolution."""
    w = [0, 1]
    for m in range(2, n + 1):
        if m % 2:
            total = sum(w[i] * w[m - i] for i in range(1, m // 2 + 1))
        else:
            half = w[m // 2]
            total = sum(w[i] * w[m - i] for i in range(1, m // 2))
            total += half * (half + 1) // 2
        w.append(total)
    return w[n]


def power_iteration_rho(rows, iterations: int = 20000, tol: float = 1e-13) -> float:
    """Spectral radius of a symmetric non-negative matrix by plain power
    iteration; independent of any LAPACK code path."""
    n = len(rows)
    vec = [1.0 / math.sqrt(n)] * n
    lam = 0.0
    for _ in range(iterations):
        nxt = [sum(rows[i][j] * vec[j] for j in range(n)) for i in range(n)]
        norm = math.sqrt(sum(x * x for x in nxt))
        if norm == 0.0:
            return 0.0
        nxt = [x / norm for x in nxt]
        if abs(norm - lam) <= tol * max(1.0, norm):
            return norm
        lam, vec = norm, nxt
    return lam


def poly_eval_fraction(coeffs_lowest_first, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs_lowest_first):
        acc = acc * x + c
    return acc


def seeded_rng(salt: int = 0) -> random.Random:
    return random.Random(987654321 + salt)


def shuffled_random_tree(n_vertices: int, rng: random.Random) -> RootedTree:
    """Random attachment tree whose vertex numbers are shuffled before
    build_tree, so the numbering is in general not a preorder: parents may
    carry larger numbers than their children, and leaf_order, the leaves in
    preorder, is in general not ascending."""
    label = list(range(n_vertices))
    rng.shuffle(label)
    parents = [None] * n_vertices
    for v in range(1, n_vertices):
        parents[label[v]] = label[rng.randrange(v)]
    return build_tree(parents)
