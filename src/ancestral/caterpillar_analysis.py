"""Binary-caterpillar spectral analysis.

The characteristic polynomial P_n of the n-leaf binary caterpillar satisfies

    P_n = (2x - 3) P_{n-1} - (x - 1)^2 P_{n-2},  P_1 = x,  P_2 = (x - 1)^2,

has a closed form in Chebyshev polynomials away from the poles x = 1 and
x = 3/2, and its largest root solves cot((n-2)t) = 3 tan(t/2) under the
substitution x = 1 + 1/(4 sin^2(t/2)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParameter, NoSignChange, PoleArgument
from .exact_charpoly import IntPolynomial, _poly_mul, _poly_sub

BISECT_EPS = 1e-12
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


def caterpillar_charpoly(n: int) -> IntPolynomial:
    """P_n by the two-term recursion, lowest-degree-first coefficients."""
    if n < 1:
        raise InvalidParameter("need n >= 1")
    p_prev = [0, 1]  # P_1 = x
    if n == 1:
        return IntPolynomial(tuple(p_prev))
    p_cur = [1, -2, 1]  # P_2 = (x - 1)^2
    for _ in range(n - 2):
        # the two terms have equal length, as _poly_sub needs
        p_prev, p_cur = p_cur, _poly_sub(_poly_mul([-3, 2], p_cur),
                                         _poly_mul([1, -2, 1], p_prev))
    return IntPolynomial(tuple(p_cur))


def _chebyshev(n: int, x, first):
    """The n-th term of c_{k+1} = 2x c_k - c_{k-1} with c_0 = 1 and
    c_1 = first; exact on rationals."""
    if n == 0:
        return x * 0 + 1
    prev, cur = x * 0 + 1, first
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def chebyshev_t(n: int, x):
    """First-kind Chebyshev value by the recurrence; exact on rationals."""
    return _chebyshev(n, x, x)


def chebyshev_u(n: int, x):
    """Second-kind Chebyshev value by the recurrence; exact on rationals."""
    return _chebyshev(n, x, 2 * x)


def chebyshev_closed_form(n: int, x):
    """(x-1)^n [ (2x/(2x-3)) T_{n-2}(y) - (3/(2x-3)) U_{n-2}(y) ] with
    y = (2x-3)/(2x-2).  Exact when x is a Fraction."""
    if n < 2:
        raise InvalidParameter("closed form starts at n = 2")
    if x == 1 or 2 * x == 3:
        raise PoleArgument(f"x = {x} is a pole of the closed form")
    y = (2 * x - 3) / (2 * x - 2)
    t_val = chebyshev_t(n - 2, y)
    u_val = chebyshev_u(n - 2, y)
    return (x - 1) ** n * ((2 * x) / (2 * x - 3) * t_val - 3 / (2 * x - 3) * u_val)


def chebyshev_form_check(n: int, x) -> bool:
    """Closed form against the recursion at one sample point, compared
    exactly: a float x is taken as its exact rational."""
    x = Fraction(x)
    return caterpillar_charpoly(n)(x) == chebyshev_closed_form(n, x)


class TrigRoot(NamedTuple):
    n: int
    t0: float
    rho: float


def trig_spectral_radius(n: int) -> TrigRoot:
    """Smallest positive root of cot((n-2)t) = 3 tan(t/2) by bisection, to
    a bracket no wider than BISECT_TOL * max(1, t).

    The bracket is (eps, pi/(2(n-2))): the left side falls from +inf to 0 on
    it while the right side grows, so the sign change is guaranteed.  The
    largest eigenvalue is 1 + 1/(4 sin^2(t0/2)).
    """
    if n < 3:
        raise InvalidParameter("need n >= 3")

    def f(t: float) -> float:
        return 1.0 / math.tan((n - 2) * t) - 3.0 * math.tan(t / 2)

    lo = BISECT_EPS
    hi = math.pi / (2 * (n - 2)) - BISECT_EPS
    flo, fhi = f(lo), f(hi)
    if not (flo > 0 > fhi):
        raise NoSignChange(f"no bracket for n = {n}")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECT_TOL * max(1.0, abs(mid)):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    t0 = 0.5 * (lo + hi)
    rho = 1.0 + 1.0 / (4.0 * math.sin(t0 / 2) ** 2)
    return TrigRoot(n=n, t0=t0, rho=rho)


def asymptotic_rho(n: int) -> float:
    """(4n^2 - 4n) / pi^2, the two-term growth law for the largest
    eigenvalue."""
    return (4.0 * n * n - 4.0 * n) / (math.pi ** 2)
