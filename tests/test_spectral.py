import math
import re

import numpy as np
import pytest

from ancestral import (
    ancestral_matrix,
    binary_caterpillar,
    bound_report,
    broom,
    build_tree,
    by_vertex_count,
    by_vertices_and_leaves,
    complete_dary,
    eigen_decompose,
    eigenvalue_one_certificate,
    eigenvalues,
    enumerate_class,
    parse_newick,
    path_incidence_matrix,
    random_tree,
    rho,
    row_sums,
    series_reduced,
    spectral_radius,
    star,
    star_plus_path,
    verify_extremal,
)
from ancestral import ancestral_matrices, spectral
from ancestral.errors import InvalidParameter, NoConvergence, SingleVertexTree
from ancestral.tree_core import ancestral_level, preorder_run

from helpers import (
    EXAMPLE_EIGENVALUES,
    corpus,
    example_tree,
    power_iteration_rho,
    seeded_rng,
    shuffled_random_tree,
)


def test_example_eigenvalues():
    spec = eigen_decompose(ancestral_matrix(example_tree()))
    assert len(spec.eigenvalues) == 6
    for got, want in zip(spec.eigenvalues, EXAMPLE_EIGENVALUES):
        assert abs(got - want) < 1e-8
    assert list(spec.eigenvalues) == sorted(spec.eigenvalues, reverse=True)


def test_residual_contract(monkeypatch):
    m = ancestral_matrix(example_tree())
    spec = eigen_decompose(m)
    a = np.array(m.rows, dtype=float)
    fro = np.linalg.norm(a)
    assert spec.residual <= 1e-10 * max(1.0, fro)
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 0.0)
    with pytest.raises(NoConvergence):
        eigen_decompose(m)


@pytest.mark.parametrize("m, shape", [
    (path_incidence_matrix(complete_dary(2, 2)), "(4, 6)"),
    ([[1, 2, 3], [4, 5, 6]], "(2, 3)"),
    ([1.0, 2.0], "(2,)"),
    ([[[1.0]]], "(1, 1, 1)"),
    ([[1, 2], [3]], None),  # ragged: numpy finds no shape
])
def test_eigen_decompose_refuses_a_non_square_input(m, shape):
    says = f"shape {shape}" if shape else "a ragged or non-numeric array"
    with pytest.raises(InvalidParameter,
                       match=re.escape(f"needs a square matrix, not {says}")):
        eigen_decompose(m)


@pytest.mark.parametrize("m", [[[math.nan]], [[math.inf, 0.0], [0.0, 1.0]],
                               [[1e300, 1e300], [1e300, 1e300]]])
def test_eigen_decompose_refuses_a_non_finite_entry(m):
    # refused before the solver runs: no residual, and no numpy warning
    # (an error under -W error) from a product with an infinite entry, or
    # from a sum of squares of finite entries that overflows
    with pytest.raises(InvalidParameter, match="needs finite entries"):
        eigen_decompose(m)


def test_eigen_decompose_solver_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence) as err:
        eigen_decompose(ancestral_matrix(example_tree()))
    assert err.value.residual == math.inf


def _random_trees(salt: int, count: int, max_vertices: int):
    """Seeded random trees of at most 400 leaves, half of them numbered in
    preorder and half with shuffled vertex numbers."""
    rng = seeded_rng(salt)
    trees = []
    while len(trees) < count:
        n = rng.randint(2, max_vertices)
        make = random_tree if len(trees) % 2 else shuffled_random_tree
        t = make(n, rng)
        if t.n_leaves <= 400:
            trees.append(t)
    return trees


def test_spectral_radius_is_max_eigenvalue():
    # the matrix-free rho against the dense eigensolver
    trees = [t for t in corpus(9) if t.n_vertices > 1]
    trees += _random_trees(61, 12, 800)
    for t in trees:
        full = eigen_decompose(ancestral_matrix(t)).eigenvalues[0]
        assert abs(spectral_radius(t).rho - full) <= 1e-12 * full


def test_perron_vector_matches_the_dense_top_vector_of_its_branch():
    trees = [t for t in corpus(8) if t.n_vertices > 1]
    trees += _random_trees(62, 12, 300)
    for t in trees:
        sr = spectral_radius(t)
        assert abs(math.fsum(v * v for v in sr.perron) - 1.0) < 1e-12
        full = np.array(ancestral_matrix(t).rows, dtype=float)
        for c in t.children[t.root]:
            a, b = t.leaf_start[c], t.leaf_stop[c]
            if sr.perron[a] > 0:
                break
        assert not any(sr.perron[:a] + sr.perron[b:])
        top = eigen_decompose(full[a:b, a:b]).eigenvectors[:, 0]
        top = top if top.sum() > 0 else -top
        assert np.max(np.abs(np.array(sr.perron[a:b]) - top)) < 1e-9


def test_matrix_free_rho_keeps_the_residual_check(monkeypatch):
    t = binary_caterpillar(5)
    assert spectral.DEFAULT_TOL == 1e-10
    assert spectral_radius(t).rho > 0
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 0.0)
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(t)
    assert exc.value.residual > 0.0
    # the bound is DEFAULT_TOL * ||C(B) + J||_F of the failing branch, the
    # block of C(T) on the four leaves below the root's second child
    block = np.array(ancestral_matrix(t).rows, dtype=float)[1:, 1:]
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(t)
    assert exc.value.bound / 1e-300 == pytest.approx(np.linalg.norm(block))


def test_every_numeric_path_reads_the_residual_tolerance_when_called(
        monkeypatch):
    # DEFAULT_TOL is read at each call, not bound when a function is
    # defined: held to 1e-300, every route that solves the caterpillar's
    # block-route branches misses its bound
    t = binary_caterpillar(5)
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    for solve in (eigenvalues, spectral_radius, bound_report,
                  lambda t: verify_extremal(series_reduced(5), t)):
        with pytest.raises(NoConvergence):
            solve(t)


def _block_route_trees():
    """corpus(8), random trees, and a star, a root with a single child, a
    path and the single vertex."""
    trees = list(corpus(8)) + _random_trees(64, 12, 300)
    trees += [star(40), build_tree([None, 0, 1, 1, 2, 2, 1]),
              build_tree([None, 0, 1, 2, 3]), build_tree([None])]
    return trees


# a tree in which two non-isomorphic siblings share an eigenvalue: the
# children () and ((,((())))) of the root's child both give 2
COINCIDING = "(((),((,((()))))));"

# a branch whose root has two non-isomorphic children of one path sum, 3:
# the cherry (,) with 2 + 1 and the path (()) with 1 + 1 + 1
EQUAL_SUMS = "(((,),(())));"


def _coinciding_sibling_trees():
    """Trees in which non-isomorphic siblings share an eigenvalue:
    COINCIDING, EQUAL_SUMS, and random trees of 200 and 600 vertices."""
    rng = seeded_rng(65)
    trees = [parse_newick(COINCIDING)]
    for n in (200, 200, 600, 600):
        make = random_tree if len(trees) % 2 else shuffled_random_tree
        trees.append(make(n, rng))
    return trees + [parse_newick(EQUAL_SUMS)]


def _filled_block(t, run):
    """The float block of the rows ``_fill`` gives on one branch's run,
    as ``eigenvalues`` lays it out."""
    level = [float(x) for x in t.level]
    return np.array(list(ancestral_matrices._fill(t, level, run)))


def test_block_route_matches_the_dense_oracle():
    # each tree by the routing rule, then every branch by the block route,
    # exact-route branches included
    trees = _block_route_trees() + _coinciding_sibling_trees()
    trees += [complete_dary(3, 4), broom(4, 6), star_plus_path(5, 7)]
    for t in trees:
        want = eigen_decompose(ancestral_matrix(t)).eigenvalues
        got = eigenvalues(t)
        assert len(got) == len(want) == t.n_leaves
        assert list(got) == sorted(got, reverse=True)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * want[0]
        if t.n_vertices == 1:
            continue
        runs = [preorder_run(t, c, 1)[0] for c in t.children[t.root]]
        blocks = [spectral._dense_solve(_filled_block(t, run), 0.0)[0]
                  for run in runs]
        dense = sorted(np.concatenate(blocks).tolist(), reverse=True)
        assert len(dense) == t.n_leaves
        assert max(abs(a - b) for a, b in zip(dense, got)) <= 1e-9 * got[0]


def test_block_builder_equals_the_slices_of_the_matrix():
    for t in _block_route_trees():
        rows = ancestral_matrix(t).rows
        covered = []
        runs = [preorder_run(t, c, 1)[0] for c in t.children[t.root]]
        # the runs tile the preorder below the root
        assert tuple(v for run in runs for v in run) == t.preorder[1:]
        for c, run in zip(t.children[t.root], runs):
            assert run[0] == c
            block = _filled_block(t, run)
            a, b = t.leaf_start[c], t.leaf_stop[c]
            assert block.tolist() == [list(row[a:b]) for row in rows[a:b]]
            covered.extend(range(a, b))
        # the blocks tile the leaves, except the single vertex's [[0]]
        if t.n_vertices > 1:
            assert sorted(covered) == list(range(t.n_leaves))


def _recorded_solves(monkeypatch) -> list:
    """The shape of every eigh call from here on; C is never built."""
    def refuse(tree):
        raise AssertionError("the ancestral matrix was built")

    shapes = []
    solve = np.linalg.eigh

    def record(a, *args, **kwargs):
        # one square matrix per call: no solve is stacked
        assert np.ndim(a) == 2 and len(set(np.shape(a))) == 1
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(ancestral_matrices, "ancestral_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigh", record)
    return shapes


def _block_route_branches(t) -> list:
    """The root children whose branches take the block route: those whose
    leaves' row sums of C(T) differ."""
    row = row_sums(t)
    branches = []
    for c in t.children[t.root]:
        sums = {row[v] for v in t.leaf_order[t.leaf_start[c]:t.leaf_stop[c]]}
        if len(sums) > 1:
            branches.append(c)
    return branches


def test_no_solve_is_larger_than_the_largest_branch(monkeypatch):
    shapes = _recorded_solves(monkeypatch)
    # trees with branches on the block route: caterpillars, and the random
    # trees, which also have branches on the exact route
    cat = binary_caterpillar(30).parent  # 59 vertices
    two = build_tree([None, 0] + [p + 1 for p in cat[1:]]
                     + [0] + [p + 60 for p in cat[1:]])
    for t in [binary_caterpillar(40), two] + _random_trees(66, 4, 300):
        shapes.clear()
        eigenvalues(t)
        dense = _block_route_branches(t)
        largest = max((t.leaf_stop[c] - t.leaf_start[c] for c in dense),
                      default=0)
        assert all(shape[-1] <= largest for shape in shapes)
        assert bool(shapes) == bool(dense)
        # one solve per block-route branch, its leaves the solve's rows
        assert (sorted(shape[0] for shape in shapes)
                == sorted(t.leaf_stop[c] - t.leaf_start[c] for c in dense))


def test_symmetric_trees_take_the_exact_route(monkeypatch):
    shapes = _recorded_solves(monkeypatch)
    trees = (complete_dary(2, 9), star(300), broom(3, 50),
             star_plus_path(30, 6), parse_newick(EQUAL_SUMS))
    for t in trees:
        assert _block_route_branches(t) == []
        eigenvalues(t)
    assert shapes == []
    assert eigenvalues(complete_dary(2, 9))[:3] == (511.0, 511.0, 255.0)
    assert eigenvalues(parse_newick(EQUAL_SUMS)) == (6.0, 3.0, 1.0)
    # the values are exact, so even a residual tolerance of 0 holds
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 0.0)
    assert eigenvalues(broom(3, 50)) == (151.0,) + (1.0,) * 49


def test_exact_route_meets_the_trace_and_norm_identities():
    # sum(lambda) = trace and sum(lambda^2) = ||C(T)||_F^2, exactly
    trees = [t for t in corpus(10) if t.n_vertices > 1]
    trees += [complete_dary(2, 9), complete_dary(5, 3), broom(7, 9),
              parse_newick(EQUAL_SUMS)]
    for t in trees:
        if _block_route_branches(t):
            continue
        values = eigenvalues(t)
        assert all(v == int(v) for v in values)
        rows = ancestral_matrix(t).rows
        assert sum(values) == sum(rows[i][i] for i in range(t.n_leaves))
        assert (sum(v * v for v in values)
                == sum(x * x for row in rows for x in row))


def test_block_route_holds_all_of_c_to_its_residual_bound(monkeypatch):
    # the example's second branch and every branch of the caterpillar but
    # the leaf take the block route
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    for t in (example_tree(), binary_caterpillar(5)):
        assert _block_route_branches(t)
        with pytest.raises(NoConvergence) as exc:
            eigenvalues(t)
        # the bound is DEFAULT_TOL * ||C(T)||_F, from the O(V) sum, not the
        # blocks
        full = np.array(ancestral_matrix(t).rows, dtype=float)
        assert exc.value.bound / 1e-300 == pytest.approx(np.linalg.norm(full))
        assert exc.value.residual > 0.0


def test_equal_row_sums_give_rho_exactly():
    # every row sum of a branch block equal: that sum is rho, exactly
    assert spectral_radius(complete_dary(2, 9)).rho == 511.0
    assert spectral_radius(complete_dary(3, 4)).rho == 40.0
    assert spectral_radius(broom(5, 4)).rho == 21.0


def test_exact_route_branches_never_reach_laguerre(monkeypatch):
    # rho of an exact-route branch is its shared row sum R, read off the
    # route's one decision: no root is sought and no float residual taken
    def refuse(*args):
        raise AssertionError("an exact-route branch took the numeric route")

    for numeric in ("_largest_root", "_branch_rho"):
        monkeypatch.setattr(spectral, numeric, refuse)
    trees = [star(40), complete_dary(3, 4), broom(3, 5)]
    trees += [t for t in corpus(8)
              if t.n_vertices > 1 and not _block_route_branches(t)]
    for t in trees:
        sr = spectral_radius(t)
        assert sr.rho == eigenvalues(t)[0]
        assert bound_report(t).rho == sr.rho
        # the first branch whose row sum is rho wins, with the uniform vector
        row = row_sums(t)
        c = next(c for c in t.children[t.root]
                 if row[t.leaf_order[t.leaf_start[c]]] == sr.rho)
        a, b = t.leaf_start[c], t.leaf_stop[c]
        assert sr.perron[a:b] == (1.0 / math.sqrt(b - a),) * (b - a)
        assert not any(sr.perron[:a] + sr.perron[b:])
    report = verify_extremal(by_vertices_and_leaves(14, 6), broom(7, 6))
    assert report.holds and report.rho_max == 43


def test_branch_rho_never_exceeds_the_row_bound():
    # each tree taken as a branch B: rho(C(B) + J) <= its largest row sum,
    # with equality exactly when every row sum is the same
    rng = seeded_rng(63)
    trees = list(corpus(9))
    while len(trees) < len(corpus(9)) + 12:
        t = random_tree(rng.randint(2, 800), rng)  # numbered in preorder
        if t.n_leaves <= 400:
            trees.append(t)
    for t in trees:
        # t below a new root is the one branch of that tree
        one_branch = build_tree([None, 0] + [p + 1 for p in t.parent[1:]])
        rows = [sum(row) + t.n_leaves for row in ancestral_matrix(t).rows]
        value = spectral_radius(one_branch).rho
        row = row_sums(one_branch)
        assert max(row[v] for v in one_branch.leaf_order) == max(rows)
        assert value <= max(rows)
        assert (value == max(rows)) == (min(rows) == max(rows))


def test_block_product_is_c_of_the_branch_plus_j_times_x():
    # every root branch of every tree of at most 10 vertices and of random
    # trees: M 1 and M r, for M = C(B) + J and its row sums r, against M
    # filled from ancestral_level, and one Collatz-Wielandt step on r
    # brackets rho(M)
    trees = [t for n in range(2, 11) for t in enumerate_class(by_vertex_count(n))]
    trees += _random_trees(66, 16, 80)
    for t in trees:
        for c in t.children[t.root]:
            run, _ = preorder_run(t, c)
            at = {v: i for i, v in enumerate(run)}
            parent = [-1] + [at[t.parent[v]] for v in run[1:]]
            leaves = [i for i, v in enumerate(run) if not t.children[v]]
            m = np.array([[ancestral_level(t, run[i], run[j]) for j in leaves]
                          for i in leaves])
            r = spectral._block_product(parent, leaves, [1] * len(leaves))
            assert r == m.sum(axis=1).tolist()
            mr = spectral._block_product(parent, leaves, r)
            assert mr == (m @ np.array(r)).tolist()
            assert all(type(x) is int for x in r + mr)
            top = np.linalg.eigvalsh(m)[-1]
            ratios = [s / x for s, x in zip(mr, r)]
            slack = 1e-12 * top
            assert min(ratios) - slack <= top <= max(ratios) + slack


def test_rho_of_deep_trees():
    depth = 10 ** 4
    assert spectral_radius(broom(depth, 3)).rho == 3.0 * depth + 1
    # a depth-10^4 path ending in a three-leaf caterpillar: C is 3 x 3
    parents = [None] + list(range(depth)) + [depth, depth, depth + 2, depth + 2]
    t = build_tree(parents)
    full = eigen_decompose(ancestral_matrix(t)).eigenvalues[0]
    assert abs(rho(t) - full) <= 1e-12 * full


def test_bound_report_builds_no_matrix(monkeypatch):
    def refuse(tree):
        raise AssertionError("the ancestral matrix was built")

    monkeypatch.setattr(ancestral_matrices, "ancestral_matrix", refuse)
    report = bound_report(complete_dary(2, 12))
    assert report.rho == 4095.0
    assert report.all_satisfied


def test_perron_vector_is_zero_outside_winning_branch():
    t = star_plus_path(3, 5)  # rho comes from the path branch
    sr = spectral_radius(t)
    assert abs(sr.rho - 5.0) < 1e-9
    entries = list(sr.perron)
    assert len(entries) == t.n_leaves
    # the deep leaf is last in leaf order; the star leaves carry zeros
    assert entries[-1] > 0.9
    assert all(e == 0.0 for e in entries[:-1])
    assert all(e >= 0.0 for e in entries)


def test_equal_branches_tie_deterministically():
    t = build_tree([None, 0, 0, 1, 1, 2, 2])  # two isomorphic cherries
    sr = spectral_radius(t)
    assert abs(sr.rho - 3.0) < 1e-9
    # first branch in leaf order wins the tie
    assert sr.perron[0] > 0 and sr.perron[2] == 0.0


def test_exact_tie_between_a_laguerre_branch_and_an_exact_branch():
    # both branches have rho = 5 exactly: the first, a branch of differing
    # row sums, by Laguerre's method; the second, a path, on the exact route
    t = parse_newick("((,,(())),(((()))));")
    sr = spectral_radius(t)
    assert sr.rho == 5.0
    assert all(e > 0.0 for e in sr.perron[:3]) and sr.perron[3] == 0.0
    assert eigenvalues(t)[:2] == (5.0, 5.0)


def test_single_vertex_spectral_radius():
    t = build_tree([None])
    sr = spectral_radius(t)
    assert sr.rho == 0.0 and sr.perron == (1.0,)


def test_rho_against_power_iteration():
    rng = seeded_rng(5)
    for _ in range(30):
        t = random_tree(rng.randint(2, 14), rng)
        expected = power_iteration_rho(ancestral_matrix(t).rows)
        assert abs(rho(t) - expected) < 1e-8 * max(1.0, expected)


def test_eigenvalues_of_known_families():
    # broom: (m J + I) block on n leaves gives mn+1 and 1s
    spec = eigen_decompose(ancestral_matrix(broom(2, 3))).eigenvalues
    assert abs(spec[0] - 7.0) < 1e-9
    assert all(abs(v - 1.0) < 1e-9 for v in spec[1:])
    # complete ternary of height 2: eigenvalue 4 three times, 1 six times
    spec = eigen_decompose(ancestral_matrix(complete_dary(3, 2))).eigenvalues
    assert sum(1 for v in spec if abs(v - 4.0) < 1e-6) == 3
    assert sum(1 for v in spec if abs(v - 1.0) < 1e-6) == 6


def test_all_eigenvalues_at_least_one():
    for t in corpus(9):
        if t.n_vertices == 1:
            continue
        spec = eigen_decompose(ancestral_matrix(t)).eigenvalues
        assert spec[-1] >= 1.0 - 1e-9


def test_certificate_example():
    cert = eigenvalue_one_certificate(example_tree())
    assert cert.multiplicity == 3
    assert cert.basis == ((1, -1, 0, 0, 0, 0),
                         (0, 0, 1, -1, 0, 0),
                         (0, 0, 0, 0, 1, -1))


def test_certificate_star_has_full_multiplicity():
    cert = eigenvalue_one_certificate(star(4))
    assert cert.multiplicity == 4
    assert len(cert.basis) == 4


def test_certificate_matches_numeric_multiplicity():
    for t in corpus(9):
        if t.n_vertices == 1:
            continue
        cert = eigenvalue_one_certificate(t)
        rows = ancestral_matrix(t).rows
        # re-verify exactness here, independently of the constructor
        for b in cert.basis:
            image = tuple(sum(r * x for r, x in zip(row, b)) for row in rows)
            assert image == b
        spec = eigen_decompose(rows).eigenvalues
        numeric = sum(1 for v in spec if abs(v - 1.0) < 1e-6)
        assert numeric == cert.multiplicity


def test_certificate_check_agrees_with_the_matrix():
    # every vector with one or two nonzero entries, right or wrong, against
    # C y = y from the rows of C
    for t in corpus(7):
        if t.n_vertices == 1:
            continue
        rows = ancestral_matrix(t).rows
        n = t.n_leaves
        for i in range(n):
            for j in range(i, n):
                for x, y in ((1, -1), (1, 1), (2, -1)):
                    entries = {i: x} if i == j else {i: x, j: y}
                    vec = [entries.get(k, 0) for k in range(n)]
                    image = [sum(a * b for a, b in zip(row, vec)) for row in rows]
                    assert spectral._fixed_by_c(t, entries) == (image == vec)
    # leaves 0 and 2 of the example lie in different sibling groups
    assert not spectral._fixed_by_c(example_tree(), {0: 1, 2: -1})
    assert spectral._fixed_by_c(example_tree(), {0: 1, 1: -1})


def test_certificate_rejects_a_vector_the_check_refutes(monkeypatch):
    monkeypatch.setattr(spectral, "_fixed_by_c", lambda tree, entries: False)
    with pytest.raises(AssertionError, match="not fixed by C"):
        eigenvalue_one_certificate(example_tree())


def test_certificate_builds_no_matrix(monkeypatch):
    def refuse(tree):
        raise AssertionError("the ancestral matrix was built")

    monkeypatch.setattr(ancestral_matrices, "ancestral_matrix", refuse)
    assert eigenvalue_one_certificate(complete_dary(2, 8)).multiplicity == 128
    assert eigenvalue_one_certificate(star(300)).multiplicity == 300
    # deep sibling leaves: the check stops where their paths meet
    assert eigenvalue_one_certificate(broom(10 ** 4, 3)).multiplicity == 2


def test_certificate_rejects_single_vertex():
    with pytest.raises(SingleVertexTree):
        eigenvalue_one_certificate(build_tree([None]))


def test_caterpillar_rho_grows_quadratically():
    values = [rho(binary_caterpillar(n)) for n in range(3, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # the three-leaf caterpillar factors as (x-1)^2 (x-3)
    assert abs(values[0] - 3.0) < 1e-9
