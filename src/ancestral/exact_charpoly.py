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
``_fold``, the package's one children fold, is shared by
``path_collections.count_by_edge_states`` and run at a single point by
``eval_det_shift``, in O(V) integer products rather than the polynomial's
O(L^2); ``dary_determinant_check`` reads its value there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NotDary
from .tree_core import RootedTree


class IntPolynomial(NamedTuple):
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

    def gamma(self) -> list[int]:
        """gamma_k so that this is the sum of (-1)^k gamma_k x^(n-k), k from
        0 to the degree n."""
        return [c if k % 2 == 0 else -c
                for k, c in enumerate(self.highest_first())]

    def multiplicity(self, root: int) -> int:
        """How often x - root divides this polynomial, by repeated exact
        synthetic division."""
        coeffs = self.highest_first()
        count = 0
        while True:
            acc, quotient = 0, []
            for c in coeffs:
                acc = acc * root + c
                quotient.append(acc)
            if quotient.pop():  # the remainder, P(root)
                return count
            coeffs = quotient
            count += 1


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


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    """a + b for lowest-first coefficient lists of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return out


def _fold(tree: RootedTree, leaf, factor) -> list[int]:
    """The root's A, where a leaf carries the pair ``leaf`` of lowest-first
    lists (A, B), a child c stands for F_c = factor(A_c, B_c), and

        A_v = prod_c F_c,    B_v = sum_c B_c prod_{c' != c} F_c'.

    Siblings fold in one at a time, (A1 A2, B1 A2 + A1 B2), so k children
    cost O(k) products.  Iterative, so depth is unbounded; a child's pair is
    dropped once taken, and the root's B, read by no caller, is not formed.
    """
    pair = {}  # a vertex's pair, until its parent takes it
    for v in reversed(tree.preorder):
        kids = tree.children[v]
        if not kids:
            pair[v] = leaf
            continue
        a, b_acc = pair.pop(kids[0])
        a_acc = factor(a, b_acc)
        for c in kids[1:]:
            a, b = pair.pop(c)
            f = factor(a, b)
            if v != tree.root:
                b_acc = _poly_add(_poly_mul(b_acc, f), _poly_mul(a_acc, b))
            a_acc = _poly_mul(a_acc, f)
        pair[v] = a_acc, b_acc
    return pair[tree.root][0]


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

    ``_fold`` folds both over the children, O(L^2) coefficient products for
    the whole tree; the root's P is the answer.
    """
    return IntPolynomial(tuple(_fold(tree, ([0, 1], [1]), _poly_sub)))


def gamma_coefficients(tree: RootedTree) -> list[int]:
    """gamma_k so that det(xI - C) = sum of (-1)^k gamma_k x^(n-k).

    gamma_1 is the trace, i.e. the sum of leaf levels; every gamma_k is a
    non-negative count (see path_collections for what it counts).
    """
    return char_poly(tree).gamma()


def eval_det_shift(tree: RootedTree, c: Fraction | int) -> Fraction:
    """Exact det(cI + C(T)) = (-1)^L P(-c), c = p/q: ``_fold`` of char_poly's
    (P, S) on one-term lists at x = -p/q, in integers as q^l P, q^(l-1) S."""
    p, q = Fraction(c).as_integer_ratio()
    value = _fold(tree, ([-p], [1]), lambda a, b: [a[0] - q * b[0]])[0]
    return Fraction((-1) ** tree.n_leaves * value, q ** tree.n_leaves)


class DaryCheck(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def dary_determinant_check(tree: RootedTree, d: int) -> DaryCheck:
    """Compare det(I + (d-1)C(T)) against d**(d * internal count).

    The tree must be d-ary: every internal vertex has exactly d children.
    """
    if d < 2:
        raise NotDary(tree.root)
    for v, kids in enumerate(tree.children):
        if kids and len(kids) != d:
            raise NotDary(v)
    lhs = (eval_det_shift(tree, Fraction(1, d - 1))
           * (d - 1) ** tree.n_leaves).numerator
    rhs = d ** (d * (tree.n_vertices - tree.n_leaves))
    return DaryCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs)
