"""Exact characteristic polynomial of the ancestral matrix over big integers.

Two genuinely independent exact routes are kept side by side:

* the primary route, ``char_poly``, is a dynamic program over the tree that
  never builds C: it uses the block structure C(T) = sum over branches B_i
  of (C(B_i) + J), with the matrix determinant lemma and Sherman-Morrison
  for the rank-one J, and costs O(L^2) big-integer products for L leaves;
* the cross-check route is Faddeev-LeVerrier on the matrix itself, whose
  per-step division by k is exact for integer matrices.

Collapsing these into one would silently drop a built-in oracle, so both are
public and the test suite compares them coefficient by coefficient.
Fraction-free (Bareiss) elimination serves the determinant checks
``eval_det_shift`` and ``dary_determinant_check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ancestral_matrices import ancestral_matrix
from .errors import NotDary
from .tree_core import RootedTree


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer coefficients, lowest degree first; always monic here."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def highest_first(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))


def bareiss_determinant(rows) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    elimination.  Every division below is exact by the Bareiss identity.
    The empty matrix has determinant 1."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two lowest-first coefficient lists, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    """a - b for lowest-first lists with len(a) >= len(b)."""
    out = a[:]
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


def charpoly_by_faddeev_leverrier(rows) -> tuple[int, ...]:
    """det(xI - M) by the Faddeev-LeVerrier recurrence over big integers.
    The division by k at each step is exact for integer input.  Coefficients
    lowest first."""
    n = len(rows)
    if n == 0:
        return (1,)
    a = [list(r) for r in rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = _mat_mul(a, aux)
        tr = sum(m[i][i] for i in range(n))
        if tr % k != 0:
            raise AssertionError("non-exact division in the recurrence")
        ck = -(tr // k)
        coeffs[n - k] = ck
        for i in range(n):
            m[i][i] += ck
        aux = m
    return tuple(coeffs)


def char_poly(tree: RootedTree) -> IntPolynomial:
    """Exact det(xI - C(T)) from the tree's block structure, without building
    C; independent of the leaf order.

    For the subtree at v, with levels counted from v, let A_v be its
    ancestral matrix, P_v = det(xI - A_v) and S_v = 1^T adj(xI - A_v) 1.  A
    leaf has A = [0], so (P, S) = (x, 1).  Below an internal vertex, A_v is
    the direct sum over children c of A_c + J (J all ones).  By the matrix
    determinant lemma det(xI - A_c - J) = P_c - S_c, and by Sherman-Morrison
    that block's S is still S_c.  Hence, with F_c = P_c - S_c,

        P_v = prod_c F_c,    S_v = sum_c S_c prod_{c' != c} F_c'.

    Both are folded over the children in one pass that keeps the running
    product, so a vertex with k children costs O(k) polynomial products and
    the whole tree O(L^2) coefficient products.  The traversal is iterative,
    so depth is unbounded.  The root's P is the answer.
    """
    children = tree.children
    p_of: list = [None] * tree.n_vertices
    s_of: list = [None] * tree.n_vertices
    for v in reversed(tree.preorder):
        kids = children[v]
        if not kids:
            p_of[v], s_of[v] = [0, 1], [1]
            continue
        # fold the children in one at a time: two diagonal blocks with
        # (P1, S1) and (P2, S2) give (P1 P2, S1 P2 + P1 S2); both products
        # have the same length, since deg S = deg P - 1
        c = kids[0]
        p_acc, s_acc = _poly_sub(p_of[c], s_of[c]), s_of[c]
        for c in kids[1:]:
            f = _poly_sub(p_of[c], s_of[c])
            s_acc = [a + b for a, b in zip(_poly_mul(s_acc, f),
                                           _poly_mul(p_acc, s_of[c]))]
            p_acc = _poly_mul(p_acc, f)
        p_of[v], s_of[v] = p_acc, s_acc
        for c in kids:  # children are done with; free their polynomials
            p_of[c] = s_of[c] = None
    return IntPolynomial(tuple(p_of[tree.root]))


def gamma_coefficients(tree: RootedTree) -> list[int]:
    """gamma_k so that det(xI - C) = sum of (-1)^k gamma_k x^(n-k).

    gamma_1 is the trace, i.e. the sum of leaf levels; every gamma_k is a
    non-negative count (see path_collections for what it counts).
    """
    poly = char_poly(tree)
    n = poly.degree
    highest = poly.highest_first()
    return [highest[k] if k % 2 == 0 else -highest[k] for k in range(n + 1)]


def eval_det_shift(tree: RootedTree, c: Fraction | int) -> Fraction:
    """Exact det(cI + C(T)) for any rational c.

    Scales to an integer matrix first: det(cI + C) = det(pI + qC) / q^n
    with c = p/q in lowest terms, so a single fraction-free elimination
    suffices.
    """
    c = Fraction(c)
    rows = ancestral_matrix(tree).rows
    n = len(rows)
    p, q = c.numerator, c.denominator
    scaled = [[q * rows[i][j] + (p if i == j else 0) for j in range(n)]
              for i in range(n)]
    return Fraction(bareiss_determinant(scaled), q ** n)


@dataclass(frozen=True)
class DaryCheck:
    lhs: int
    rhs: int
    equal: bool


def dary_determinant_check(tree: RootedTree, d: int) -> DaryCheck:
    """Compare det(I + (d-1)C(T)) against d**(d * internal count).

    The tree must be d-ary: every internal vertex has exactly d children.
    """
    if d < 2:
        raise NotDary(tree.root)
    int_count = 0
    for v in range(tree.n_vertices):
        k = len(tree.children[v])
        if k == 0:
            continue
        if k != d:
            raise NotDary(v)
        int_count += 1
    rows = ancestral_matrix(tree).rows
    n = len(rows)
    shifted = [[(d - 1) * rows[i][j] + (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    lhs = bareiss_determinant(shifted)
    rhs = d ** (d * int_count)
    return DaryCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs)
