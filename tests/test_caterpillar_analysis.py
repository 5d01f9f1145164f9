"""Recursion, Chebyshev closed form and trig root for binary caterpillars."""

import math
from fractions import Fraction

import pytest

from ancestral import (
    asymptotic_rho,
    binary_caterpillar,
    caterpillar_charpoly,
    char_poly,
    chebyshev_closed_form,
    chebyshev_form_check,
    chebyshev_t,
    chebyshev_u,
    rho,
    trig_spectral_radius,
)
from ancestral.errors import InvalidParameter, PoleArgument

from helpers import CATERPILLAR_CHARPOLYS


def test_low_order_polynomials_frozen():
    for n, coeffs in CATERPILLAR_CHARPOLYS.items():
        assert caterpillar_charpoly(n).highest_first() == coeffs


def test_rejects_nonpositive_n():
    with pytest.raises(InvalidParameter):
        caterpillar_charpoly(0)
    with pytest.raises(InvalidParameter):
        caterpillar_charpoly(-3)


def test_recursion_agrees_with_matrix_charpoly():
    for n in range(1, 10):
        assert caterpillar_charpoly(n) == char_poly(binary_caterpillar(n))


def test_p3_factors():
    p3 = caterpillar_charpoly(3)
    assert p3(1) == 0 and p3(3) == 0
    assert p3(Fraction(1, 2)) == Fraction(-5, 8)


def test_recursion_identity_pointwise():
    # P_n(x) = (2x - 3) P_{n-1}(x) - (x - 1)^2 P_{n-2}(x), checked exactly
    # at more integer points than the degree
    polys = {n: caterpillar_charpoly(n) for n in range(1, 13)}
    for n in range(3, 13):
        for x in range(-6, 8):
            lhs = polys[n](x)
            rhs = (2 * x - 3) * polys[n - 1](x) - (x - 1) ** 2 * polys[n - 2](x)
            assert lhs == rhs


def test_chebyshev_spot_values():
    x = Fraction(1, 3)
    assert chebyshev_t(3, x) == 4 * x**3 - 3 * x == Fraction(-23, 27)
    y = Fraction(1, 2)
    assert chebyshev_u(2, y) == 4 * y**2 - 1 == 0
    assert chebyshev_t(0, Fraction(5)) == 1
    assert chebyshev_u(1, Fraction(7, 2)) == 7


def test_closed_form_matches_recursion_exactly():
    points = (2, Fraction(5, 2), Fraction(-1, 3), Fraction(7, 4), 4)
    for n in range(2, 9):
        for x in points:
            assert chebyshev_form_check(n, x)
            assert caterpillar_charpoly(n)(Fraction(x)) == chebyshev_closed_form(
                n, Fraction(x)
            )


def test_closed_form_float_path():
    assert chebyshev_form_check(5, 2.2)


def test_closed_form_of_a_float_is_compared_exactly():
    # in floats the two sides differ by 1.8e-9 relative at (14, 2.2), and
    # overflow at (200, 100.25); as the floats' exact rationals they agree
    assert chebyshev_form_check(14, 2.2)
    assert chebyshev_form_check(200, 100.25)


def test_closed_form_poles_and_domain():
    with pytest.raises(PoleArgument):
        chebyshev_closed_form(4, 1)
    with pytest.raises(PoleArgument):
        chebyshev_closed_form(4, Fraction(3, 2))
    with pytest.raises(PoleArgument):
        chebyshev_closed_form(4, 1.5)
    with pytest.raises(InvalidParameter):
        chebyshev_closed_form(1, 2)


def test_trig_root_small_cases():
    root = trig_spectral_radius(3)
    assert root.rho == pytest.approx(3.0, abs=1e-9)
    assert 0 < root.t0 < math.pi / 2


def test_trig_matches_eigensolver():
    for n in range(3, 17):
        trig = trig_spectral_radius(n)
        assert trig.rho == pytest.approx(rho(binary_caterpillar(n)), rel=1e-8)
        assert 0 < trig.t0 < math.pi / (2 * (n - 2))


def test_trig_needs_three_leaves():
    with pytest.raises(InvalidParameter):
        trig_spectral_radius(2)


def test_trig_rho_increases_with_n():
    values = [trig_spectral_radius(n).rho for n in range(3, 31)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_asymptotic_growth_law():
    assert asymptotic_rho(10) == pytest.approx(360.0 / math.pi**2, rel=1e-15)
    for n in range(10, 81):
        assert abs(trig_spectral_radius(n).rho - asymptotic_rho(n)) <= 3.0
