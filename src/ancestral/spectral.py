"""Numeric spectrum of the ancestral matrix and the eigenvalue-1 certificate.

The eigensolver contract of ``eigen_decompose`` is: residual
max_i ||M x_i - lambda_i x_i|| at most DEFAULT_TOL * max(1, ||M||_F), read
at each call, eigenvalues descending, eigenvectors orthonormal.  LAPACK's
symmetric solver via numpy computes it, and the residual is checked after
the fact rather than trusted.  numpy is imported only where a dense solve
runs.

C(T) is the direct sum of the blocks C(B) + J over the branches B below the
root, so ``eigenvalues`` solves one branch at a time, by one of two routes:

- The exact route, for a branch whose leaves all have the same row sum in
  C(T).  Let A_v be the ancestral matrix of the subtree at v, levels
  counted from v, so that A_v is the direct sum of the A_k + J over v's
  children k, and the block of a branch with root c is A_c + J.  If every
  A_k + J has the all-ones vector 1 as an eigenvector with one common
  eigenvalue x, then 1 is an eigenvector of A_v + J with eigenvalue
  x + L_v (the secular equation 1 = 1^T (yI - A_v)^-1 1 has the single
  pole x, of weight L_v), the other g - 1 directions in the span of the
  children's all-ones vectors keep x, and every eigenvector of an A_k + J
  orthogonal to its 1 keeps its eigenvalue.  From a leaf, whose block is
  (1), x at v is the sum of L_u over the vertices u on any path from v
  down to a leaf, and at the branch root it is the common row sum.  So
  the spectrum of the block is x at c and, for each vertex of B with g
  children, g - 1 copies of x at its children: integers below L_B times
  the height, computed in one O(V_B) pass, exact as floats below 2^53,
  with no residual to check and no numpy.
- The block route, for every other branch.  Each block C(B) + J is filled
  in numpy from O(V) tree arrays, never from the L x L matrix, and has one
  dense solve of its own, whose residual is that of ``eigen_decompose``
  against the bound DEFAULT_TOL * max(1, ||C(T)||_F) of the whole matrix.

The rule reads ``tree_core.row_sums``: a branch takes the exact route when
all of its leaves share one value R of it, and x at a child of a vertex v
is then R - row[v].  A branch in which every vertex's children are
isomorphic passes, so complete d-ary trees, stars and brooms take the
exact route; a branch holding two siblings of different path sums, as a
caterpillar's spine does, takes the block route and its L_B^3 dense work.

The spectral radius needs no matrix and no eigensolver.  The largest
eigenvalue of one block comes from a pivot recurrence over B's vertices (the
analogue, for C(T), of Jacobs and Trevisan's eigenvalue location in trees),
solved by Laguerre's method in O(V) per step from the block's largest row
sum.  Its Perron vector and the residual of the contract above come from
the same pivots, again in O(V).  Row sums, leaf counts, levels and the
Frobenius norm are read off the tree's own arrays (``tree_core.row_sums``
and the leaf ranges), once per tree, never re-derived per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvalidParameter, NoConvergence, SingleVertexTree
from .tree_core import RootedTree, check_dense, row_sums

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10
LAGUERRE_MAX_STEPS = 100


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]  # descending
    eigenvectors: np.ndarray  # orthonormal columns aligned with eigenvalues
    residual: float


@dataclass(frozen=True)
class EigenOneCertificate:
    multiplicity: int
    basis: tuple[tuple[int, ...], ...]


def _dense_solve(a, bound: float):
    """Symmetric eigensolve of one matrix: eigenvalues ascending,
    orthonormal eigenvectors, and the largest residual ||A x - lambda x||.
    A solver failure raises NoConvergence with an infinite residual and the
    caller's bound."""
    import numpy as np

    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(residual=math.inf, bound=bound) from exc
    misses = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    return vals, vecs, float(np.max(misses))


def eigen_decompose(m) -> Spectrum:
    """Full symmetric eigendecomposition with a residual certificate, of a
    square array or of a matrix that holds one as its ``rows``.  An empty
    input has the empty spectrum; a non-empty one of any other shape is
    refused as an invalid parameter, before the solver runs."""
    import numpy as np

    a = np.asarray(getattr(m, "rows", m), dtype=float)
    if a.size == 0:
        return Spectrum(eigenvalues=(), eigenvectors=a.reshape(0, 0), residual=0.0)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameter(
            f"eigen_decompose needs a square matrix, not shape {a.shape}")
    bound = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a, "fro")))
    vals, vecs, residual = _dense_solve(a, bound)
    if not residual <= bound:
        raise NoConvergence(residual=residual, bound=bound)
    return Spectrum(eigenvalues=tuple(vals[::-1].tolist()),
                    eigenvectors=vecs[:, ::-1], residual=residual)


def _branch_runs(tree: RootedTree) -> tuple[list[int], list[tuple[int, ...]]]:
    """The position of each vertex in the tree's preorder, and each root
    child's run of it, in the order of the root's children: the vertices of
    the branch below that child, the child first."""
    order = tree.preorder
    at = [0] * len(order)
    for i, v in enumerate(order):
        at[v] = i
    ends = [at[c] for c in tree.children[tree.root]] + [len(order)]
    return at, [order[a:b] for a, b in zip(ends, ends[1:])]


def _branch_block(tree: RootedTree, run: Sequence[int]):
    """The block C(B) + J of C(T) for the branch B whose run of the preorder
    is ``run``: the n x n float block of B's n leaves on leaf_order[a:a + n],
    a its first leaf.

    Let h[i] be the level of the common ancestor of leaves a + i and
    a + i + 1.  A vertex v is that ancestor exactly when leaf a + i + 1 is
    the first leaf of a child of v other than the first, so one pass over
    B's vertices fills h and meets B's leaves in leaf order.
    Then C[i][j] = min(h[i..j-1]) for i < j, and a row of the block is one
    running minimum over h: O(L_B) numpy calls and O(L_B^2) entries.  The
    diagonal holds the leaves' levels.
    """
    import numpy as np

    level, children, start = tree.level, tree.children, tree.leaf_start
    a = start[run[0]]
    gaps = [0] * (tree.leaf_stop[run[0]] - a - 1)
    diag = []
    for v in run:
        kids = children[v]
        for c in kids[1:]:
            gaps[start[c] - 1 - a] = level[v]
        if not kids:
            diag.append(level[v])
    h = np.array(gaps, dtype=float)
    block = np.diag(np.array(diag, dtype=float))
    for i in range(len(gaps)):
        mins = np.minimum.accumulate(h[i:])
        block[i, i + 1:] = mins
        block[i + 1:, i] = mins
    return block


def _fro_sq(tree: RootedTree, run: Iterable[int]) -> int:
    """||.||_F^2 of the block of C(T) on the leaves below the vertices of
    ``run``, one or more whole branches below the root: the sum over its
    vertices v of k_v^2 (2 level(v) - 1) for the k_v leaves below v."""
    start, stop, level = tree.leaf_start, tree.leaf_stop, tree.level
    return sum((stop[v] - start[v]) ** 2 * (2 * level[v] - 1) for v in run)


def eigenvalues(tree: RootedTree) -> tuple[float, ...]:
    """Every eigenvalue of C(T), descending, solved branch by branch.

    A branch whose leaves all share one value R of ``row_sums(tree)`` takes
    the exact route: R, and for each vertex v of it with g >= 2 children,
    g - 1 copies of R - row[v], the path sum x at v's children.  Every
    other branch takes the block route, one dense solve per branch.  No
    L x L matrix is built and no dense solve is larger than the largest
    branch.
    The contract holds for C(T) as a whole: the largest residual of any
    block is compared with DEFAULT_TOL * max(1, ||C(T)||_F), from
    ``_fro_sq`` over every non-root vertex.  Raises NoConvergence when it
    misses that bound.  The single vertex has the spectrum (0,).
    """
    if tree.n_vertices == 1:
        return (0.0,)
    children = tree.children
    row = row_sums(tree)
    values: list[float] = []
    dense = []
    for run in _branch_runs(tree)[1]:
        r = row[run[-1]]  # the last vertex of a run is a leaf
        exact = [float(r)]
        for v in run:
            g = len(children[v])
            if g > 1:
                exact += [float(r - row[v])] * (g - 1)
            elif not g and row[v] != r:
                size = tree.leaf_stop[run[0]] - tree.leaf_start[run[0]]
                check_dense("branch block", size, size)
                dense.append(run)
                break
        else:
            values += exact
    if dense:
        bound = DEFAULT_TOL * max(1.0, math.sqrt(_fro_sq(tree, tree.preorder[1:])))
        residual = 0.0
        for run in dense:
            vals, _, miss = _dense_solve(_branch_block(tree, run), bound)
            residual = max(residual, miss)
            values.extend(vals.tolist())
        if not residual <= bound:
            raise NoConvergence(residual=residual, bound=bound)
    values.sort(reverse=True)
    return tuple(values)


@dataclass(frozen=True)
class SpectralRadius:
    rho: float
    perron: tuple[float, ...]  # non-negative unit vector over leaf_order


def _pivots(parent: Sequence[int], is_leaf: list[bool], n_leaves: int,
            x: float):
    """The pivots of a branch at x, bottom-up, with G = F'/F and
    H = -(log F)'' for F = det(xI - C(B) - J).

    The pivot of vertex i is d_i = 1 - r_i, where r_i(x) = 1^T (xI - A_i)^-1 1
    for the ancestral matrix A_i of the subtree at i: r = 1/x at a leaf,
    else the sum over children c of r_c / d_c (Sherman-Morrison on the
    block A_c + J).  F is x^L times the product of all pivots, so
    G = L/x + sum of -r_i'/d_i and H = L/x^2 + sum of r_i''/d_i + (r_i'/d_i)^2,
    with r' = -1/x^2, r'' = 2/x^3 at a leaf and r' = sum r_c'/d_c^2,
    r'' = sum r_c''/d_c^2 + 2 r_c'^2/d_c^3 above.

    The branch root must be internal.  Returns None when a pivot below it
    is not positive: x is then below that subtree's own largest eigenvalue.
    The root's pivot may be <= 0, and then G and H are meaningless.
    """
    m = len(parent)
    inv = 1.0 / x
    leaf_r, leaf_dr, leaf_ddr = inv, -inv * inv, 2.0 * inv * inv * inv
    r = [0.0] * m
    dr = [0.0] * m
    ddr = [0.0] * m
    d = [0.0] * m
    g = n_leaves * inv
    h = g * inv
    for i in range(m - 1, 0, -1):
        if is_leaf[i]:
            ri, dri, ddri = leaf_r, leaf_dr, leaf_ddr
        else:
            ri, dri, ddri = r[i], dr[i], ddr[i]
        di = 1.0 - ri
        if di <= 0.0:
            return None
        d[i] = di
        a = dri / di
        g -= a
        h += ddri / di + a * a
        p = parent[i]
        r[p] += ri / di
        b = a / di
        dr[p] += b
        ddr[p] += ddri / (di * di) + 2.0 * a * b
    d[0] = d0 = 1.0 - r[0]
    if d0 > 0.0:
        a = dr[0] / d0
        g -= a
        h += ddr[0] / d0 + a * a
    return d, g, h


def _largest_root(parent: Sequence[int], is_leaf: list[bool], n_leaves: int,
                  x: float) -> tuple[float, list[float]]:
    """Largest root of F = det(xI - C(B) - J) from an upper bound x, with
    the pivots there.

    F is real-rooted of degree L, so Laguerre's step
    x - L / (G + sqrt((L - 1)(L H - G^2))) from above its largest root stays
    above it, converges cubically, and is never shorter than Newton's step
    1/G; every pivot is positive above the root.  The iteration stops once a
    step no longer decreases x or the branch root's pivot reaches <= 0; x is
    then the root, since only rounding can carry a step from above past it.
    After LAGUERRE_MAX_STEPS steps the caller's residual check decides.
    """
    found = _pivots(parent, is_leaf, n_leaves, x)
    if found is None:  # only rounding at an astronomically large start
        raise NoConvergence(residual=math.inf, bound=0.0)
    d, g, h = found
    for _ in range(LAGUERRE_MAX_STEPS):
        if d[0] <= 0.0:
            break
        # L H >= G^2 by Cauchy-Schwarz; rounding may break it near a root
        spread = (n_leaves - 1) * (n_leaves * h - g * g)
        x_next = x - n_leaves / (g + math.sqrt(spread) if spread > 0.0 else g)
        if not x_next < x:
            break
        found = _pivots(parent, is_leaf, n_leaves, x_next)
        if found is None:
            break
        x = x_next
        d, g, h = found
    return x, d


def _branch_rho(tree: RootedTree, run: Sequence[int], at: Sequence[int],
                row: Sequence[int]) -> tuple[float, list[float]]:
    """Largest eigenvalue of C(B) + J for one branch B, and its unit Perron
    vector over B's leaves in preorder, without building the matrix.

    ``run`` is B's run of the tree's preorder, ``at`` the position of each
    vertex in that preorder and ``row`` the tree's ``row_sums``.  The
    largest row sum of C(B) + J, read off ``row`` at B's leaves, bounds the
    eigenvalue from above.  When every row sum is the same, it is the
    eigenvalue, exactly, with the all-ones direction as its vector
    (complete d-ary branches, brooms).  Otherwise ``_largest_root``
    descends from it on the position of each vertex's parent within
    ``run``, and the Perron vector is y = (xI - C(B))^-1 1: a leaf's entry
    is 1/x times the product of 1/d over the vertices below B's root on its
    path.

    The eigensolver contract is checked on (x, y) as ``eigen_decompose``
    does, with (C(B) + J) y from one pass of subtree sums and one of prefix
    sums, and ||C(B) + J||_F from ``_fro_sq`` over ``run``.  Raises
    NoConvergence when the residual exceeds the bound.
    """
    m = len(run)
    first = at[run[0]]
    parent = [-1] + [at[tree.parent[v]] - first for v in run[1:]]
    is_leaf = [not tree.children[v] for v in run]
    leaves = [i for i in range(m) if is_leaf[i]]
    n_leaves = len(leaves)

    sums = [row[run[i]] for i in leaves]
    x = max(sums)
    if min(sums) == x:
        x = float(x)
        y = [1.0 / math.sqrt(n_leaves)] * n_leaves
    else:
        x, d = _largest_root(parent, is_leaf, n_leaves, float(x))
        q = [0.0] * m
        q[0] = 1.0 / x
        for i in range(1, m):
            q[i] = q[parent[i]] / d[i]
        norm = math.sqrt(sum(q[i] * q[i] for i in leaves))
        y = [q[i] / norm for i in leaves]

    s = [0.0] * m
    for i, v in zip(leaves, y):
        s[i] = v
    for i in range(m - 1, 0, -1):
        s[parent[i]] += s[i]
    for i in range(1, m):
        s[i] += s[parent[i]]
    residual = math.sqrt(sum((s[i] - x * v) ** 2 for i, v in zip(leaves, y)))
    bound = DEFAULT_TOL * max(1.0, math.sqrt(_fro_sq(tree, run)))
    if not residual <= bound:
        raise NoConvergence(residual=residual, bound=bound)
    return x, y


def _spectral_radius(tree: RootedTree, row: Sequence[int]) -> SpectralRadius:
    """``spectral_radius`` from the tree's ``row_sums``, for callers that
    already hold them."""
    if tree.n_vertices == 1:
        return SpectralRadius(rho=0.0, perron=(1.0,))
    at, runs = _branch_runs(tree)
    best_rho = best_vec = best = None
    for run in runs:
        value, vec = _branch_rho(tree, run, at, row)
        if best_rho is None or value > best_rho:
            best_rho, best_vec, best = value, vec, run[0]
    perron = [0.0] * tree.n_leaves
    perron[tree.leaf_start[best]:tree.leaf_stop[best]] = best_vec
    return SpectralRadius(rho=best_rho, perron=tuple(perron))


def spectral_radius(tree: RootedTree) -> SpectralRadius:
    """Largest eigenvalue of C(T) with a non-negative eigenvector.

    Computed branch by branch with ``_branch_rho``, on each root child's run
    of the tree's preorder, from one ``row_sums`` of the whole tree: the
    block of C(T) on one branch's leaves, C(B) + J, has all entries
    positive, so its top eigenvector is simple and strictly positive.  The
    winning branch's vector fills its slice [leaf_start, leaf_stop) of
    leaf_order, and every other entry is zero; when several branches tie
    exactly, the first root child in stored order wins.  No matrix is built.
    """
    return _spectral_radius(tree, row_sums(tree))


def rho(tree: RootedTree) -> float:
    return spectral_radius(tree).rho


def _fixed_by_c(tree: RootedTree, entries: dict[int, int]) -> bool:
    """Whether C(T) y = y, exactly, for the vector y with one or two nonzero
    entries, given by leaf position, through the Gram factor C = N N^T (N
    the leaf by non-root vertex incidence) and without C.

    z = N^T y at a vertex is the sum of y over the leaves below it, so it is
    nonzero only on the ancestor paths of y's entries: each entry alone up
    to where the paths meet, and their sum from there to the root, unless
    that sum is 0.  Then N z adds each z[v] over the range
    [leaf_start, leaf_stop) of v's leaves.
    """
    parent, level, root = tree.parent, tree.level, tree.root
    (i, x), *rest = entries.items()
    u = tree.leaf_order[i]
    z: dict[int, int] = {}
    if rest:
        (j, y), = rest
        w = tree.leaf_order[j]
        while level[u] > level[w]:
            z[u] = x
            u = parent[u]
        while level[w] > level[u]:
            z[w] = y
            w = parent[w]
        while u != w:
            z[u] = x
            z[w] = y
            u, w = parent[u], parent[w]
        x += y
    if x:
        while u != root:
            z[u] = x
            u = parent[u]
    image: dict[int, int] = {}
    for v, x in z.items():
        for k in range(tree.leaf_start[v], tree.leaf_stop[v]):
            image[k] = image.get(k, 0) + x
    return {k: x for k, x in image.items() if x} == entries


def eigenvalue_one_certificate(tree: RootedTree) -> EigenOneCertificate:
    """Combinatorial multiplicity of the eigenvalue 1 with an exact basis.

    The multiplicity is (number of leaves) - (number of non-root vertices
    adjacent to a leaf).  The basis: for every maximal group of sibling
    leaves, difference vectors against the group's first leaf; plus, if the
    root has a leaf child, one unit vector for the first such leaf.  Every
    vector is checked by exact integer arithmetic before returning, through
    ``_fixed_by_c``, without the L x L matrix.
    """
    if tree.n_vertices == 1:
        raise SingleVertexTree("the single-vertex tree has spectrum {0}")
    leaves = tree.leaf_order
    n = len(leaves)
    leaf_adjacent = {tree.parent[v] for v in leaves}
    leaf_adjacent.discard(tree.root)
    multiplicity = n - len(leaf_adjacent)
    check_dense("eigenvalue-1 basis", multiplicity, n)

    groups: dict[int, list[int]] = {}
    for v in leaves:
        groups.setdefault(tree.parent[v], []).append(tree.leaf_start[v])

    sparse: list[dict[int, int]] = []
    for parent in sorted(groups):
        first, *others = groups[parent]
        sparse.extend({first: 1, other: -1} for other in others)
        if parent == tree.root:
            sparse.append({first: 1})

    if multiplicity != len(sparse):
        raise AssertionError("basis size disagrees with the counting formula")

    basis = []
    for entries in sparse:
        if not _fixed_by_c(tree, entries):
            raise AssertionError("constructed vector is not fixed by C")
        vec = [0] * n
        for i, x in entries.items():
            vec[i] = x
        basis.append(tuple(vec))
    return EigenOneCertificate(multiplicity=multiplicity, basis=tuple(basis))
