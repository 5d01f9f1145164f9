"""Numeric spectrum of the ancestral matrix and the eigenvalue-1 certificate.

The eigensolver contract of ``eigen_decompose`` is: residual
max_i ||M x_i - lambda_i x_i|| at most DEFAULT_TOL * max(1, ||M||_F), read
at each call, eigenvalues descending, eigenvectors orthonormal.  LAPACK's
symmetric solver via numpy computes it, and the residual is checked after
the fact rather than trusted.  numpy is imported only where a dense solve
runs.

C(T) is the direct sum of the blocks C(B) + J over the branches B below the
root.  ``_exact_route`` decides each branch's route once, and both
``eigenvalues`` and ``spectral_radius`` read that decision:

- The exact route, for a branch whose leaves all share one row sum R of
  C(T): its spectrum in integers, from one O(V_B) pass, with R largest.
  The integer identity (C(B) + J) 1 = R 1 is its certificate, so it has no
  float residual and no numpy, and no vector unless it wins rho.
- The numeric route, for every other branch.  ``eigenvalues`` writes the
  rows of ``ancestral_matrices._fill`` on the branch's run of the preorder,
  with float levels, into one numpy block, since C(T) on B's leaves is
  C(B) + J, and gives it one dense solve, held to the bound
  DEFAULT_TOL * max(1, ||C(T)||_F) of the whole matrix.
  ``spectral_radius`` builds no matrix: Laguerre's method on a pivot
  recurrence over B's vertices (the analogue, for C(T), of Jacobs and
  Trevisan's eigenvalue location in trees), O(V) per step, gives the
  largest eigenvalue, and the same pivots its Perron vector and residual.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .ancestral_matrices import _fill
from .errors import InvalidParameter, NoConvergence, SingleVertexTree
from .tree_core import RootedTree, check_dense, preorder_run, row_sums

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10
LAGUERRE_MAX_STEPS = 100


class Spectrum(NamedTuple):
    eigenvalues: tuple[float, ...]  # descending
    eigenvectors: np.ndarray  # orthonormal columns aligned with eigenvalues
    residual: float


class EigenOneCertificate(NamedTuple):
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
    input has the empty spectrum; a non-empty one of any other shape, or
    whose ||A||_F^2 is no finite float, is refused as an invalid parameter,
    before the solver runs, so no product of the solve overflows."""
    import numpy as np

    try:
        a = np.asarray(getattr(m, "rows", m), dtype=float)
    except ValueError as exc:
        raise InvalidParameter("eigen_decompose needs a square matrix, not a "
                               "ragged or non-numeric array") from exc
    if a.size == 0:
        return Spectrum(eigenvalues=(), eigenvectors=a.reshape(0, 0), residual=0.0)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameter(
            f"eigen_decompose needs a square matrix, not shape {a.shape}")
    with np.errstate(over="ignore"):  # a nan, an inf or an overflow: refused
        norm = float(np.linalg.norm(a, "fro"))
    if not math.isfinite(norm):
        raise InvalidParameter("eigen_decompose needs finite entries and norm")
    bound = DEFAULT_TOL * max(1.0, norm)
    vals, vecs, residual = _dense_solve(a, bound)
    if not residual <= bound:
        raise NoConvergence(residual=residual, bound=bound)
    return Spectrum(eigenvalues=tuple(vals[::-1].tolist()),
                    eigenvectors=vecs[:, ::-1], residual=residual)


def _fro_sq(tree: RootedTree, run: Iterable[int]) -> int:
    """||.||_F^2 of the block of C(T) on the leaves below the vertices of
    ``run``, one or more whole branches below the root: the sum over its
    vertices v of k_v^2 (2 level(v) - 1) for the k_v leaves below v."""
    start, stop, level = tree.leaf_start, tree.leaf_stop, tree.level
    return sum((stop[v] - start[v]) ** 2 * (2 * level[v] - 1) for v in run)


def _exact_route(tree: RootedTree, c: int,
                 row: Sequence[int]) -> Optional[int]:
    """The row sum R of C(T) that every leaf of the branch B below the root
    child c shares, ``row`` being the tree's ``row_sums``; None when B's
    leaves do not all share one.  B's spectrum is then exact:

    Let A_v be the ancestral matrix of the subtree at v, levels counted from
    v: A_v is the direct sum of the A_k + J over v's children k, and B's
    block is A_c + J for its root c.  If every A_k + J has the all-ones
    vector 1 as an eigenvector with one common eigenvalue x, then so has
    A_v + J, with eigenvalue x + L_v (the secular equation
    1 = 1^T (yI - A_v)^-1 1 has the single pole x, of weight L_v), the
    other g - 1 directions in the span of the children's all-ones vectors
    keep x, and every eigenvector of an A_k + J orthogonal to its 1 keeps
    its eigenvalue.  From a leaf, whose block is (1), x at v is the sum of
    L_u over the vertices u on any path from v down to a leaf, and R at c.
    So the spectrum is R and, for each vertex v of B with g >= 2 children,
    g - 1 copies of R - row[v], the x at v's children: integers below L_B
    times the height, exact as floats below 2^53.  The shared R is
    (C(B) + J) 1 = R 1 in integers, so R is the Perron value, with no
    residual to check.  Stars, brooms and complete d-ary trees pass; a
    caterpillar's spine, whose siblings differ, does not.
    """
    if not tree.children[c]:
        return row[c]  # a leaf child is its branch's one leaf
    sums = list(map(row.__getitem__,
                    tree.leaf_order[tree.leaf_start[c]:tree.leaf_stop[c]]))
    return sums[0] if sums.count(sums[0]) == len(sums) else None


def eigenvalues(tree: RootedTree) -> tuple[float, ...]:
    """Every eigenvalue of C(T), descending, branch by branch: exactly on
    ``_exact_route``, else by one dense solve no larger than the branch; no
    L x L matrix is built.  The largest residual of any block is held to
    DEFAULT_TOL * max(1, ||C(T)||_F), from ``_fro_sq`` over every non-root
    vertex, and NoConvergence is raised when it misses.  The single vertex
    has the spectrum (0,).
    """
    if tree.n_vertices == 1:
        return (0.0,)
    row = row_sums(tree)
    children = tree.children
    values: list[float] = []
    dense = []
    pos = 1
    for c in children[tree.root]:
        r = _exact_route(tree, c, row)
        if r is not None:
            values.append(float(r))
            if not children[c]:
                continue
        run, pos = preorder_run(tree, c, pos)
        if r is None:
            size = tree.leaf_stop[c] - tree.leaf_start[c]
            check_dense("branch block", size, size)
            dense.append((run, size))
            continue
        for v in run:
            g = len(children[v])
            if g > 1:
                values += [float(r - row[v])] * (g - 1)
    if dense:
        import numpy as np

        bound = DEFAULT_TOL * max(1.0, math.sqrt(_fro_sq(tree, tree.preorder[1:])))
        level = [float(x) for x in tree.level]
        residual = 0.0
        for run, size in dense:
            block = np.empty((size, size))
            for i, entries in enumerate(_fill(tree, level, run)):
                block[i] = entries
            vals, _, miss = _dense_solve(block, bound)
            residual = max(residual, miss)
            values.extend(vals.tolist())
        if not residual <= bound:
            raise NoConvergence(residual=residual, bound=bound)
    values.sort(reverse=True)
    return tuple(values)


class SpectralRadius(NamedTuple):
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


def _branch_rho(tree: RootedTree, run: Sequence[int],
                row: Sequence[int]) -> tuple[float, list[float]]:
    """Largest eigenvalue of C(B) + J for one branch B on the numeric route,
    and its unit Perron vector over B's leaves in preorder, without building
    the matrix.

    ``run`` is B's run of the tree's preorder and ``row`` the tree's
    ``row_sums``.  The largest row sum of C(B) + J, read off ``row`` at B's
    leaves, bounds the eigenvalue from above, and ``_largest_root`` descends
    from it on the position of each vertex's parent within ``run``.  The Perron vector is
    y = (xI - C(B))^-1 1: a leaf's entry is 1/x times the product of 1/d
    over the vertices below B's root on its path.

    The eigensolver contract is checked on (x, y) as ``eigen_decompose``
    does, with (C(B) + J) y from one pass of subtree sums and one of prefix
    sums, and ||C(B) + J||_F from ``_fro_sq`` over ``run``.  Raises
    NoConvergence when the residual exceeds the bound.
    """
    m = len(run)
    at = dict(zip(run, range(m)))
    parent = [-1] + [at[tree.parent[v]] for v in run[1:]]
    is_leaf = [not tree.children[v] for v in run]
    leaves = [i for i in range(m) if is_leaf[i]]
    n_leaves = len(leaves)

    x = float(max(row[run[i]] for i in leaves))
    x, d = _largest_root(parent, is_leaf, n_leaves, x)
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
    best_rho = best_vec = best = None
    pos = 1
    for c in tree.children[tree.root]:
        r = _exact_route(tree, c, row)
        if r is None:
            run, pos = preorder_run(tree, c, pos)
            value, vec = _branch_rho(tree, run, row)
        else:
            value, vec = float(r), None
        if best_rho is None or value > best_rho:
            best_rho, best_vec, best = value, vec, c
    a, b = tree.leaf_start[best], tree.leaf_stop[best]
    perron = [0.0] * tree.n_leaves
    # an exact branch's vector is its all-ones direction
    perron[a:b] = best_vec or [1.0 / math.sqrt(b - a)] * (b - a)
    return SpectralRadius(rho=best_rho, perron=tuple(perron))


def spectral_radius(tree: RootedTree) -> SpectralRadius:
    """Largest eigenvalue of C(T) with a non-negative eigenvector.

    Computed branch by branch, on each root child's run of the tree's
    preorder, from one ``row_sums`` of the whole tree: R on a branch of
    ``_exact_route``, ``_branch_rho`` on every other.  The block of C(T) on
    one branch's leaves, C(B) + J, has all entries positive, so its top
    eigenvector is simple and strictly positive.  The winning branch's
    vector fills its slice [leaf_start, leaf_stop) of leaf_order, and every
    other entry is zero; when several branches tie exactly, the first root
    child in stored order wins.  No matrix is built.
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
