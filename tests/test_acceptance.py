"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test records a PASS/FAIL outcome in RESULTS; conftest.py replays them
as one summary line per criterion at the end of the run.
"""

import functools
import subprocess
import sys
from fractions import Fraction

from ancestral import (
    OpKind,
    ancestral_matrix,
    apply_op,
    asymptotic_rho,
    binary_caterpillar,
    bound_report,
    broom,
    by_outdegree_sequence,
    by_vertices_and_leaves,
    caterpillar_charpoly,
    char_poly,
    chebyshev_closed_form,
    complete_dary,
    count_collections,
    dary_by_leaves,
    dary_determinant_check,
    delta_equality_holds,
    eigen_decompose,
    eigenvalue_one_certificate,
    enumerate_class,
    gamma_coefficients,
    gram_check,
    greedy_caterpillar,
    is_complete_dary,
    parse_newick,
    path_broom,
    path_incidence_matrix,
    random_tree,
    rho,
    serialize_newick,
    series_reduced,
    spectral_radius,
    star,
    star_plus_path,
    structural_stats,
    trig_spectral_radius,
    valid_specs,
    verify_extremal,
    witness_leaves,
)
from ancestral import enumeration

from helpers import (
    EXAMPLE_C_ROWS,
    EXAMPLE_EIGENVALUES,
    EXAMPLE_INCIDENCE_ROWS,
    corpus,
    example_tree,
    seeded_rng,
)


RESULTS = {}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[num] = (label, False)
                print(f"criterion {num:02d} FAIL {label}")
                raise
            RESULTS[num] = (label, True)
            print(f"criterion {num:02d} PASS {label}")

        return wrapper

    return deco


def partitions(m, max_part=None):
    if max_part is None or max_part > m:
        max_part = m
    if m == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


@criterion(1, "worked-example matrices and spectrum reproduced")
def test_criterion_01_figure_reproduction():
    ex = example_tree()
    mat = ancestral_matrix(ex)
    assert mat.rows == EXAMPLE_C_ROWS
    assert "\n".join(" ".join(str(x) for x in row) for row in mat.rows) == (
        "2 1 0 0 0 0\n"
        "1 2 0 0 0 0\n"
        "0 0 2 1 1 1\n"
        "0 0 1 2 1 1\n"
        "0 0 1 1 3 2\n"
        "0 0 1 1 2 3"
    )
    inc = path_incidence_matrix(ex)
    assert inc.rows == EXAMPLE_INCIDENCE_ROWS
    assert "\n".join(" ".join(str(x) for x in row) for row in inc.rows) == (
        "1 1 0 0 0 0 0 0 0\n"
        "0 1 1 0 0 0 0 0 0\n"
        "0 0 0 1 1 0 0 0 0\n"
        "0 0 0 1 0 1 0 0 0\n"
        "0 0 0 1 0 0 1 1 0\n"
        "0 0 0 1 0 0 1 0 1"
    )
    eig = eigen_decompose(mat).eigenvalues
    assert len(eig) == 6
    for got, want in zip(eig, EXAMPLE_EIGENVALUES):
        assert abs(got - want) <= 1e-8


@criterion(2, "gram identity exact on the corpus and 500 random trees")
def test_criterion_02_gram_identity():
    for t in corpus(11):
        assert gram_check(t)
    rng = seeded_rng(2)
    for _ in range(500):
        t = random_tree(rng.randint(2, 26), rng)
        assert t.n_leaves <= 25
        assert gram_check(t)


@criterion(3, "eigenvalue-1 multiplicity and exact eigenvectors")
def test_criterion_03_eigenvalue_one():
    for t in corpus(11):
        if t.n_vertices == 1:
            continue
        cert = eigenvalue_one_certificate(t)
        rows = ancestral_matrix(t).rows
        n = len(rows)
        for b in cert.basis:
            image = tuple(sum(rows[i][j] * b[j] for j in range(n))
                          for i in range(n))
            assert image == tuple(b)
        eig = eigen_decompose(ancestral_matrix(t)).eigenvalues
        numeric = sum(1 for v in eig if abs(v - 1.0) < 1e-6)
        assert numeric == cert.multiplicity


@criterion(4, "bound suite holds; delta equality exactly on complete d-ary")
def test_criterion_04_bounds():
    for t in corpus(11):
        if t.n_vertices == 1:
            continue
        rep = bound_report(t)
        assert rep.all_satisfied
        assert all(m >= -1e-7 for m in rep.margins.values())
        assert delta_equality_holds(t) == is_complete_dary(t)


@criterion(5, "brooms maximize rho over fixed vertex and leaf counts")
def test_criterion_05_broom_extremality(monkeypatch):
    monkeypatch.setattr(enumeration, "TIE_WINDOW", 1e-6)
    for n_vertices in range(3, 11):
        for n_leaves in range(2, n_vertices):
            cls = by_vertices_and_leaves(n_vertices, n_leaves)
            claimed = broom(n_vertices - n_leaves - 1, n_leaves)
            report = verify_extremal(cls, claimed)
            assert report.holds
            expected = n_leaves * (n_vertices - n_leaves - 1) + 1
            assert abs(report.rho_max - expected) <= 1e-6


@criterion(6, "greedy caterpillar maximizes rho per outdegree multiset")
def test_criterion_06_greedy_extremality(monkeypatch):
    monkeypatch.setattr(enumeration, "TIE_WINDOW", 1e-7)
    checked = 0
    for m in range(1, 10):
        for seq in partitions(m):
            report = verify_extremal(by_outdegree_sequence(seq),
                                     greedy_caterpillar(seq))
            assert report.holds
            checked += 1
    assert checked == 96


@criterion(7, "binary caterpillar maximal among series-reduced trees")
def test_criterion_07_series_reduced_extremality(monkeypatch):
    monkeypatch.setattr(enumeration, "TIE_WINDOW", 1e-7)
    for n in range(1, 8):
        report = verify_extremal(series_reduced(n), binary_caterpillar(n))
        assert report.holds


@criterion(8, "caterpillar recursion and Chebyshev closed form exact")
def test_criterion_08_caterpillar_recursion():
    for n in range(1, 13):
        assert caterpillar_charpoly(n).coeffs == \
            char_poly(binary_caterpillar(n)).coeffs
    for n in range(2, 9):
        for j in range(20):
            x = Fraction(2) + Fraction(j, 7)
            assert caterpillar_charpoly(n)(x) == chebyshev_closed_form(n, x)


@criterion(9, "trig root matches eigensolver; asymptotic window holds")
def test_criterion_09_trig_asymptotics():
    for n in range(3, 31):
        numeric = rho(binary_caterpillar(n))
        assert abs(trig_spectral_radius(n).rho - numeric) <= 1e-6 * numeric
    for n in range(10, 201):
        assert abs(rho(binary_caterpillar(n)) - asymptotic_rho(n)) <= 3.0


@criterion(10, "collection counts equal the charpoly coefficients")
def test_criterion_10_collection_coefficients():
    for t in corpus(10):
        stats = structural_stats(t)
        if stats.L > 8 or stats.h > 5:
            continue
        result = count_collections(t, budget=10 ** 7)
        assert list(result.counts) == gamma_coefficients(t)
        sign = -1 if t.n_leaves % 2 else 1
        assert result.total == sign * char_poly(t)(-1)


@criterion(11, "d-ary determinant identity; binary totals are 4^(n-1)")
def test_criterion_11_dary_determinant():
    for n in range(1, 9):
        for t in enumerate_class(dary_by_leaves(2, n)):
            assert dary_determinant_check(t, 2).equal
            assert count_collections(t).total == 4 ** (n - 1)
    for n in range(1, 10):
        for t in enumerate_class(dary_by_leaves(3, n)):
            assert dary_determinant_check(t, 3).equal


@criterion(12, "tree operations never lower rho; strict under the witness")
def test_criterion_12_monotonicity():
    rng = seeded_rng(12)
    for kind in OpKind:
        done = 0
        attempts = 0
        while done < 500:
            attempts += 1
            assert attempts < 50000
            t = random_tree(rng.randint(3, 12), rng)
            specs = valid_specs(t, kind)
            if not specs:
                continue
            spec = specs[rng.randrange(len(specs))]
            sr = spectral_radius(t)
            after = rho(apply_op(t, spec))
            assert after >= sr.rho - 1e-9
            if all(sr.perron[t.leaf_start[v]] > 1e-6
                   for v in witness_leaves(t, spec)):
                assert after > sr.rho + 1e-9
            done += 1


@criterion(13, "parse after serialize is the identity on parent lists")
def test_criterion_13_newick_round_trip():
    trees = []
    for n in range(1, 9):
        trees.append(star(n))
        trees.append(binary_caterpillar(n))
    for m in range(0, 4):
        for n in range(1, 5):
            trees.append(broom(m, n))
            trees.append(path_broom(m + 1, n))
    for d in (2, 3):
        for h in range(1, 4):
            trees.append(complete_dary(d, h))
    for m in range(1, 7):
        for seq in partitions(m):
            trees.append(greedy_caterpillar(seq))
    for n in range(0, 4):
        for h in range(0, 4):
            if n or h:
                trees.append(star_plus_path(n, h))
    rng = seeded_rng(13)
    trees.extend(random_tree(rng.randint(1, 30), rng) for _ in range(1000))
    for t in trees:
        assert parse_newick(serialize_newick(t)).parent_list() == t.parent_list()


@criterion(14, "verify-all is deterministic and green")
def test_criterion_14_determinism():
    cmd = [sys.executable, "-m", "ancestral.cli", "verify-all",
           "--max-leaves", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.splitlines()) == 17
    assert "VIOLATED" not in first.stdout
