"""Output checker: compares a query's stdout with an expected text.

Text between numbers must match exactly, which covers verdict lines such as
SATISFIED / VIOLATED and Newick strings.  Integers and rationals must be
equal; a number written with a decimal point or an exponent on either side is
a float and must agree within FLOAT_REL relative.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction

FLOAT_REL = 1e-9

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?:/\d+)?)")


def _is_float(token: str) -> bool:
    return any(ch in token for ch in ".eE")


def _same_number(expected: str, actual: str) -> bool:
    if _is_float(expected) or _is_float(actual):
        a, b = float(expected), float(actual)
        return abs(a - b) <= FLOAT_REL * max(abs(a), abs(b))
    return Fraction(expected) == Fraction(actual)


def compare(expected: str, actual: str):
    """None when ``actual`` matches ``expected``, else the first difference."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return f"{len(act_lines)} lines, expected {len(exp_lines)}"
    for n, (exp, act) in enumerate(zip(exp_lines, act_lines), 1):
        if exp == act:
            continue
        exp_parts, act_parts = _NUMBER.split(exp), _NUMBER.split(act)
        same = len(exp_parts) == len(act_parts) and all(
            (e == a) if k % 2 == 0 else _same_number(e, a)
            for k, (e, a) in enumerate(zip(exp_parts, act_parts)))
        if not same:
            return f"line {n}: {act[:80]!r}, expected {exp[:80]!r}"
    return None


def compare_reference(ref: dict, actual: str):
    """Compare with a stored reference: full text, or a SHA-256 digest for
    long integer-only outputs."""
    if "sha256" in ref:
        digest = hashlib.sha256(actual.encode()).hexdigest()
        return None if digest == ref["sha256"] else f"sha256 {digest[:12]}…, expected {ref['sha256'][:12]}…"
    return compare(ref["stdout"], actual)
