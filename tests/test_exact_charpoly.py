"""Exact characteristic polynomial: two in-package routes that must agree
(the tree dynamic program behind char_poly, and Faddeev-LeVerrier on the
matrix), plus an external computer-algebra oracle on a spot-check set."""

from fractions import Fraction

import pytest
import sympy

from ancestral import (
    IntPolynomial,
    binary_caterpillar,
    broom,
    char_poly,
    charpoly_by_faddeev_leverrier,
    complete_dary,
    dary_determinant_check,
    eval_det_shift,
    gamma_coefficients,
    greedy_caterpillar,
    star,
    structural_stats,
)
from ancestral import ancestral_matrix, build_tree, eigenvalue_one_certificate
from ancestral import count_by_edge_states, exact_charpoly
from ancestral.errors import NotDary

from helpers import (
    BROOM23_CHARPOLY,
    EXAMPLE_CHARPOLY,
    EXAMPLE_GAMMA,
    corpus,
    example_tree,
    poly_eval_fraction,
    seeded_rng,
    shuffled_random_tree,
)


def test_eval_det_shift_matches_faddeev_leverrier():
    # det(cI + C) = (-1)^L FL(-c), with FL's polynomial from the matrix itself
    shifts = (Fraction(1), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 3),
              Fraction(-5))
    for t in corpus(8):
        fl = charpoly_by_faddeev_leverrier(ancestral_matrix(t).rows)
        sign = (-1) ** t.n_leaves
        for c in shifts:
            assert eval_det_shift(t, c) == sign * poly_eval_fraction(fl, -c)
        for d in (2, 3):
            if {len(k) for k in t.children if k} <= {d}:
                q = d - 1
                want = sign * q ** t.n_leaves * poly_eval_fraction(fl, Fraction(-1, q))
                assert dary_determinant_check(t, d).lhs == want


def test_example_charpoly_and_gamma():
    poly = char_poly(example_tree())
    assert tuple(poly.highest_first()) == EXAMPLE_CHARPOLY
    assert tuple(gamma_coefficients(example_tree())) == EXAMPLE_GAMMA
    assert poly.degree == 6


def test_broom_charpoly():
    assert tuple(char_poly(broom(2, 3)).highest_first()) == BROOM23_CHARPOLY


def test_gamma_signs_alternate_and_are_nonnegative():
    for t in corpus(8):
        highest = char_poly(t).highest_first()
        gamma = gamma_coefficients(t)
        assert all(g >= 0 for g in gamma)
        assert [g if k % 2 == 0 else -g
                for k, g in enumerate(gamma)] == list(highest)


def test_root_multiplicity_by_exact_division():
    x = sympy.symbols("x")
    product = sympy.Poly(x ** 2 * (x - 1) ** 3 * (x + 2), x).all_coeffs()
    poly = IntPolynomial(tuple(int(c) for c in reversed(product)))
    assert [poly.multiplicity(r) for r in (0, 1, -2, 2)] == [2, 3, 1, 0]
    assert IntPolynomial((1,)).multiplicity(1) == 0
    # the eigenvalue-one suite of verify-all; the numeric count is checked
    # against the certificate in the acceptance tests
    for t in corpus(8):
        if t.n_vertices > 1:
            assert (char_poly(t).multiplicity(1)
                    == eigenvalue_one_certificate(t).multiplicity)


def test_two_routes_agree_on_corpus():
    for t in corpus(8):
        rows = ancestral_matrix(t).rows
        assert char_poly(t).coeffs == charpoly_by_faddeev_leverrier(rows)


def test_two_routes_agree_on_random_trees():
    # shuffled vertex numbers, so children and leaves are not in preorder,
    # and a few high-degree vertices among the random attachments
    rng = seeded_rng(17)
    for _ in range(60):
        t = shuffled_random_tree(rng.randint(1, 40), rng)
        rows = ancestral_matrix(t).rows
        assert char_poly(t).coeffs == charpoly_by_faddeev_leverrier(rows)
    for t in (star(25), build_tree([None, 0] + [1] * 20 + [0] * 5)):
        rows = ancestral_matrix(t).rows
        assert char_poly(t).coeffs == charpoly_by_faddeev_leverrier(rows)


def test_against_sympy_oracle():
    for t in (example_tree(), broom(2, 3), star(4), binary_caterpillar(5),
              complete_dary(2, 3), greedy_caterpillar([3, 2, 2])):
        rows = ancestral_matrix(t).rows
        lam = sympy.symbols("lam")
        expected = sympy.Matrix(rows).charpoly(lam).all_coeffs()
        assert tuple(int(c) for c in expected) == char_poly(t).highest_first()


def test_trace_coefficient_is_total_leaf_depth():
    for t in corpus(9):
        gamma = gamma_coefficients(t)
        trace = gamma[1] if len(gamma) > 1 else 0
        assert trace == structural_stats(t).D_root


def test_eval_det_shift():
    ex = example_tree()
    # det(I + C) equals the alternating-sign evaluation at -1
    assert eval_det_shift(ex, 1) == sum(EXAMPLE_GAMMA) == 640
    got = eval_det_shift(ex, Fraction(1, 2))
    coeffs = char_poly(ex).coeffs
    assert got == poly_eval_fraction(coeffs, Fraction(-1, 2))
    assert got == Fraction(11529, 64)


def test_eval_det_shift_of_a_large_star_is_a_power():
    # C(star) = I, so det(cI + C) = (c + 1)^L
    assert eval_det_shift(star(2000), Fraction(1, 3)) == Fraction(4, 3) ** 2000


def test_dary_determinant_check():
    check = dary_determinant_check(complete_dary(3, 2), 3)
    assert check.equal and check.lhs == 3 ** 12
    check = dary_determinant_check(binary_caterpillar(5), 2)
    assert check.equal and check.lhs == 4 ** 4
    with pytest.raises(NotDary):
        dary_determinant_check(star(3), 2)
    with pytest.raises(NotDary):
        dary_determinant_check(complete_dary(2, 2), 1)


def test_big_integer_coefficients_stay_exact():
    t = binary_caterpillar(24)
    rows = ancestral_matrix(t).rows
    a = char_poly(t).coeffs
    b = charpoly_by_faddeev_leverrier(rows)
    assert a == b
    assert a[-1] == 1  # monic
    assert max(abs(c) for c in a) > 2 ** 40
    # alternating signs, and the absolute values sum to the binary total
    assert sum(abs(c) for c in a) == 4 ** 23


def test_polynomial_callable():
    poly = char_poly(star(3))
    # C is the 3x3 identity
    assert poly(1) == 0
    assert poly(0) == -1
    assert poly(Fraction(3, 2)) == Fraction(1, 8)


def test_deep_path_charpoly():
    # C = [[L]] for a path with its one leaf at level L
    depth = 10 ** 5
    assert char_poly(broom(depth - 1, 1)).highest_first() == (1, -depth)


@pytest.mark.parametrize("tree, products", [
    (star(50), 49),
    (complete_dary(2, 6), 187),
], ids=["star-50", "dary-2-6"])
@pytest.mark.parametrize("dp", [char_poly, count_by_edge_states],
                         ids=["char_poly", "count_by_edge_states"])
def test_both_dps_share_the_fold_and_skip_the_roots_second_list(
        monkeypatch, tree, products, dp):
    # three products per child past the first below the root, and one at
    # the root, whose second list no caller reads
    calls = []
    mul = exact_charpoly._poly_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(exact_charpoly, "_poly_mul", counted)
    dp(tree)
    assert len(calls) == products
