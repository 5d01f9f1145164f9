"""Numeric spectrum of the ancestral matrix and the eigenvalue-1 certificate.

The eigensolver contract is: residual max_i ||M x_i - lambda_i x_i|| at most
tol * max(1, ||M||_F), eigenvalues descending, eigenvectors orthonormal.  Any
solver meeting it qualifies; LAPACK's symmetric solver via numpy is used and
the residual is checked after the fact rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ancestral_matrices import AncestralMatrix, ancestral_matrix
from .errors import NoConvergence, SingleVertexTree
from .tree_core import RootedTree, branch_leaf_groups

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]  # descending
    eigenvectors: np.ndarray  # orthonormal columns aligned with eigenvalues
    residual: float


@dataclass(frozen=True)
class EigenOneCertificate:
    multiplicity: int
    basis: tuple[tuple[int, ...], ...]


def _as_array(m) -> np.ndarray:
    if isinstance(m, AncestralMatrix):
        m = m.rows
    return np.asarray(m, dtype=float)


def eigen_decompose(m, tol: float = DEFAULT_TOL) -> Spectrum:
    """Full symmetric eigendecomposition with a residual certificate."""
    a = _as_array(m)
    if a.size == 0:
        return Spectrum(eigenvalues=(), eigenvectors=a.reshape(0, 0), residual=0.0)
    bound = tol * max(1.0, float(np.linalg.norm(a, "fro")))
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(residual=math.inf, bound=bound) from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    residual = float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)))
    if residual > bound:
        raise NoConvergence(residual=residual, bound=bound)
    return Spectrum(eigenvalues=tuple(float(v) for v in vals),
                    eigenvectors=vecs, residual=residual)


@dataclass(frozen=True)
class SpectralRadius:
    rho: float
    perron: np.ndarray  # non-negative unit vector over leaf_order


def spectral_radius(tree: RootedTree, tol: float = DEFAULT_TOL) -> SpectralRadius:
    """Largest eigenvalue of C(T) with a non-negative eigenvector.

    Computed branch by branch: the submatrix of C(T) on one branch's leaves
    has all entries positive, so its top eigenvector is simple and strictly
    positive.  The winning branch's vector is padded with zeros; when several
    branches tie exactly, the first in leaf order wins.
    """
    n = tree.n_leaves
    if tree.n_vertices == 1:
        return SpectralRadius(rho=0.0, perron=np.ones(1))
    full = _as_array(ancestral_matrix(tree))
    best_rho = None
    best_vec = None
    best_positions = None
    for _branch_root, positions in branch_leaf_groups(tree):
        sub = full[np.ix_(positions, positions)]
        spec = eigen_decompose(sub, tol)
        rho = spec.eigenvalues[0]
        if best_rho is None or rho > best_rho:
            vec = spec.eigenvectors[:, 0]
            if vec.sum() < 0:
                vec = -vec
            best_rho, best_vec, best_positions = rho, vec, positions
    perron = np.zeros(n)
    perron[list(best_positions)] = best_vec
    return SpectralRadius(rho=float(best_rho), perron=perron)


def rho(tree: RootedTree, tol: float = DEFAULT_TOL) -> float:
    return spectral_radius(tree, tol).rho


def eigenvalue_one_certificate(tree: RootedTree) -> EigenOneCertificate:
    """Combinatorial multiplicity of the eigenvalue 1 with an exact basis.

    The multiplicity is (number of leaves) - (number of non-root vertices
    adjacent to a leaf).  The basis: for every maximal group of sibling
    leaves, difference vectors against the group's first leaf; plus, if the
    root has a leaf child, one unit vector for the first such leaf.  Every
    vector is checked by exact integer multiplication before returning.
    """
    if tree.n_vertices == 1:
        raise SingleVertexTree("the single-vertex tree has spectrum {0}")
    leaves = tree.leaf_order
    pos = {v: i for i, v in enumerate(leaves)}
    n = len(leaves)

    groups: dict[int, list[int]] = {}
    for v in leaves:
        groups.setdefault(tree.parent[v], []).append(v)

    basis: list[tuple[int, ...]] = []
    for parent in sorted(groups):
        members = groups[parent]
        first = pos[members[0]]
        for other in members[1:]:
            vec = [0] * n
            vec[first] = 1
            vec[pos[other]] = -1
            basis.append(tuple(vec))
        if parent == tree.root:
            vec = [0] * n
            vec[first] = 1
            basis.append(tuple(vec))

    leaf_adjacent = {tree.parent[v] for v in leaves}
    leaf_adjacent.discard(tree.root)
    multiplicity = n - len(leaf_adjacent)
    if multiplicity != len(basis):
        raise AssertionError("basis size disagrees with the counting formula")

    # C is symmetric, so C vec combines the rows at vec's 1-2 nonzero entries
    rows = ancestral_matrix(tree).rows
    for vec in basis:
        image = [0] * n
        for j, x in enumerate(vec):
            if x:
                image = [a + x * b for a, b in zip(image, rows[j])]
        if tuple(image) != vec:
            raise AssertionError("constructed vector is not fixed by C")
    return EigenOneCertificate(multiplicity=multiplicity, basis=tuple(basis))
