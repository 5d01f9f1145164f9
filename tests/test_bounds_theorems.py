from fractions import Fraction

import pytest

from ancestral import (
    ancestral_matrix,
    bound_report,
    broom,
    build_tree,
    complete_dary,
    delta_equality_holds,
    is_complete_dary,
    q_recursion_check,
    q_value,
    rho,
    star,
    structural_stats,
    terminal_wiener,
    total_ancestral_depth,
)
from ancestral import bounds_theorems, spectral
from ancestral.errors import NotALeaf, SingleVertexTree

from helpers import (
    EXAMPLE_Q,
    EXAMPLE_TERMINAL_WIENER,
    bfs_distances,
    corpus,
    example_tree,
    seeded_rng,
    shuffled_random_tree,
)


def test_example_quantities():
    ex = example_tree()
    assert q_value(ex) == EXAMPLE_Q
    assert terminal_wiener(ex) == EXAMPLE_TERMINAL_WIENER
    assert structural_stats(ex).D_root == 14
    # row sum of the deeper cherry leaf
    assert total_ancestral_depth(ex, 8) == 7
    # Q = L * D(root) - TW ties the three quantities together
    assert EXAMPLE_Q == 6 * 14 - EXAMPLE_TERMINAL_WIENER


def test_total_ancestral_depth_rejects_internal_vertex():
    with pytest.raises(NotALeaf):
        total_ancestral_depth(example_tree(), 4)


def test_terminal_wiener_against_bfs():
    for t in corpus(8):
        leaves = t.leaf_order
        expected = 0
        for i, u in enumerate(leaves):
            dist = bfs_distances(t, u)
            expected += sum(dist[v] for v in leaves[i + 1:])
        assert terminal_wiener(t) == expected


def test_edge_count_quantities_match_the_matrix():
    rng = seeded_rng(43)
    for _ in range(60):
        t = shuffled_random_tree(rng.randint(2, 60), rng)
        rows = ancestral_matrix(t).rows
        row_sums = [sum(r) for r in rows]
        assert q_value(t) == sum(row_sums)
        for i, v in enumerate(t.leaf_order):
            assert total_ancestral_depth(t, v) == row_sums[i]
        rep = bound_report(t)
        assert rep.max_ad == max(row_sums)
        assert rep.avg_ad == Fraction(sum(row_sums), t.n_leaves)


def test_q_recursion_on_corpus():
    for t in corpus(9):
        assert q_recursion_check(t)


def test_q_recursion_deep():
    # every path edge has both leaves below it
    depth = 10 ** 5
    t = broom(depth, 2)
    assert q_value(t) == 4 * depth + 2
    assert q_recursion_check(t)


def test_example_bound_report():
    rep = bound_report(example_tree())
    assert rep.avg_ad == Fraction(5)
    assert rep.max_ad == 7
    assert rep.tw_bound == rep.avg_ad
    assert rep.height_bound == 3
    assert rep.delta_bound == Fraction(5, 2)
    assert rep.all_satisfied
    assert rep.margins["max_ad"] >= 0.0


def test_bounds_hold_on_corpus():
    for t in corpus(9):
        if t.n_vertices == 1:
            continue
        assert bound_report(t).all_satisfied


def test_bound_report_structure_matches_structural_stats():
    rng = seeded_rng(41)
    trees = [t for t in corpus(8) if t.n_vertices > 1]
    trees += [shuffled_random_tree(rng.randint(2, 120), rng) for _ in range(50)]
    for t in trees:
        rep = bound_report(t)
        stats = structural_stats(t)
        assert rep.height_bound == stats.h
        assert rep.delta_bound == (Fraction(stats.L - 1, stats.delta - 1)
                                   if stats.delta >= 2 else 0)
        assert rep.tw_bound == (stats.D_root
                                - Fraction(terminal_wiener(t), stats.L))


def test_single_vertex_is_rejected():
    with pytest.raises(SingleVertexTree):
        bound_report(build_tree([None]))


def test_path_attains_the_height_bound():
    t = broom(4, 1)  # a path: single leaf at level 5
    rep = bound_report(t)
    assert abs(rep.rho - 5.0) < 1e-9
    assert rep.height_bound == 5


def test_degree_bound_vacuous_below_two():
    rep = bound_report(broom(3, 1))
    assert rep.delta_bound == 0


def test_is_complete_dary():
    assert is_complete_dary(star(5))
    assert is_complete_dary(complete_dary(2, 3))
    assert is_complete_dary(complete_dary(3, 2))
    assert not is_complete_dary(broom(2, 3))
    assert not is_complete_dary(broom(3, 1))
    assert not is_complete_dary(example_tree())
    assert not is_complete_dary(build_tree([None]))


def test_delta_equality_exactly_on_complete_dary():
    # sharpness: rho = (L-1)/(delta-1) on complete d-ary trees, no others
    for t in corpus(8):
        if t.n_vertices == 1:
            continue
        assert delta_equality_holds(t) == is_complete_dary(t)


def test_delta_equality_value():
    t = complete_dary(3, 2)
    assert abs(rho(t) - 4.0) < 1e-9
    assert Fraction(9 - 1, 3 - 1) == 4
    assert delta_equality_holds(t)


def test_bound_report_derives_row_sums_and_leaf_counts_once(monkeypatch):
    calls = []

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(tree):
            calls.append(name)
            return func(tree)
        monkeypatch.setattr(module, name, wrapper)

    counted(bounds_theorems, "row_sums")
    counted(spectral, "row_sums")
    counted(bounds_theorems, "leaf_counts")
    report = bound_report(broom(3, 5))
    assert report.rho == 16.0
    assert sorted(calls) == ["leaf_counts", "row_sums"]
