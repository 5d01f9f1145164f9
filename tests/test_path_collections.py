"""Edge-disjoint upward-path collections against the polynomial coefficients,
and the edge-state count against the brute-force scan."""

import pytest

from ancestral import (
    binary_caterpillar,
    build_tree,
    char_poly,
    complete_dary,
    count_by_edge_states,
    count_collections,
    eval_det_shift,
    gamma_coefficients,
    generate,
    star,
    structural_stats,
    upward_paths,
)
from ancestral.errors import BudgetExceeded, NotALeaf

from helpers import (
    EXAMPLE_GAMMA,
    EXAMPLE_TOTAL_COLLECTIONS,
    ancestor_chain,
    corpus,
    example_tree,
    seeded_rng,
    shuffled_random_tree,
)


def test_upward_path_counts_per_leaf():
    ex = example_tree()
    for v in ex.leaf_order:
        assert upward_paths(ex, v) == ex.level[v] + 1
    for v in (0, 2, 4, 7):
        with pytest.raises(NotALeaf):
            upward_paths(ex, v)
    with pytest.raises(NotALeaf):
        upward_paths(ex, 99)


def test_example_counts_frozen():
    for count in (count_collections, count_by_edge_states):
        res = count(example_tree())
        assert res.counts == EXAMPLE_GAMMA
        assert res.total == EXAMPLE_TOTAL_COLLECTIONS
        assert res.witnesses is None


def _witness_edges(tree, witness):
    """Edge sets one witness selects, recomputed from parent chains."""
    sets = []
    for v, ascended in zip(tree.leaf_order, witness):
        chain = ancestor_chain(tree, v)  # root .. v
        below = list(reversed(chain))  # v .. root
        sets.append({(below[i], below[i + 1]) for i in range(ascended)})
    return sets


def test_example_witnesses_are_disjoint_and_distinct():
    ex = example_tree()
    res = count_collections(ex, want_witnesses=True)
    assert res.total == EXAMPLE_TOTAL_COLLECTIONS
    assert (0, 1, 2, 0, 1, 2) in res.witnesses

    # shuffled vertex numbers: leaf_order is not ascending, and a witness
    # must still follow it
    rng = seeded_rng(83)
    trees = [ex] + [shuffled_random_tree(rng.randint(2, 10), rng)
                    for _ in range(30)]
    for t in trees:
        res = count_collections(t, want_witnesses=True)
        assert len(res.witnesses) == res.total
        assert len(set(res.witnesses)) == res.total
        by_k = [0] * (t.n_leaves + 1)
        for witness in res.witnesses:
            sets = _witness_edges(t, witness)
            union = set().union(*sets)
            assert len(union) == sum(len(s) for s in sets)
            by_k[sum(1 for a in witness if a)] += 1
        assert tuple(by_k) == res.counts


def test_counts_equal_charpoly_gammas():
    for t in corpus(7):
        res = count_collections(t)
        assert res.counts == tuple(gamma_coefficients(t))
        assert res.total == eval_det_shift(t, 1)
        assert res.total == (-1) ** t.n_leaves * char_poly(t)(-1)


def test_single_nontrivial_count_is_depth_sum():
    for t in corpus(6):
        if t.n_vertices == 1:
            continue
        d_root = structural_stats(t).D_root
        assert count_collections(t).counts[1] == d_root
        assert count_by_edge_states(t).counts[1] == d_root
    for n in (40, 300):
        t = binary_caterpillar(n)
        assert count_by_edge_states(t).counts[1] == structural_stats(t).D_root


def test_single_vertex():
    for count in (count_collections, count_by_edge_states):
        res = count(build_tree([None]))
        assert res.counts == (1, 0)
        assert res.total == 1


def test_binary_totals_are_powers_of_four():
    for n in range(2, 7):
        t = binary_caterpillar(n)
        assert count_collections(t).total == 4 ** (n - 1)
    for h in range(1, 4):
        t = complete_dary(2, h)
        assert count_collections(t).total == 4 ** (t.n_leaves - 1)
    # the edge-state count reaches sizes the scan cannot
    for n in (2, 7, 60, 400):
        t = binary_caterpillar(n)
        assert count_by_edge_states(t).total == 4 ** (n - 1)
    for h in range(1, 9):
        t = complete_dary(2, h)
        assert count_by_edge_states(t).total == 4 ** (t.n_leaves - 1)


def test_edge_state_count_equals_the_brute_force():
    trees = corpus(12)
    assert len(trees) == 7813
    for t in trees:
        assert count_by_edge_states(t) == count_collections(t), t.parent


@pytest.mark.parametrize("spec", ["star:1100", "binary-caterpillar:500",
                                  "dary:3,6"])
def test_edge_state_count_equals_charpoly_past_the_brute_force(spec):
    t = generate(spec)
    res = count_by_edge_states(t)
    assert list(res.counts) == char_poly(t).gamma()
    assert res.total == sum(res.counts)


def test_edge_state_count_on_a_deep_path():
    # one leaf 20,000 edges below the root: the trivial path, or one of
    # 20,000 non-trivial ones
    t = build_tree([None] + list(range(20000)))
    res = count_by_edge_states(t)
    assert res.counts == (1, 20000)
    assert res.total == 20001


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as err:
        count_collections(star(30), budget=10)
    assert err.value.size == 16
    # a product exactly at the budget is allowed
    assert count_collections(star(3), budget=8).total == 8
    with pytest.raises(BudgetExceeded):
        count_collections(star(3), budget=7)
