import pytest
from hypothesis import given, strategies as st

from ancestral import (
    ancestral_level,
    binary_caterpillar,
    broom,
    build_tree,
    complete_dary,
    generate,
    greedy_caterpillar,
    leaf_counts,
    path_broom,
    star,
    star_plus_path,
    structural_stats,
    subtree,
)
from ancestral.errors import (
    CycleDetected,
    IndexOutOfRange,
    InvalidParameter,
    MultipleRoots,
)
from ancestral.tree_core import branch_leaf_groups, subtree_with_map

from helpers import (
    EXAMPLE_PARENTS,
    ancestor_chain,
    corpus,
    example_tree,
    lca_level_oracle,
    seeded_rng,
    shuffled_random_tree,
)


def test_build_tree_example_structure():
    t = example_tree()
    assert t.root == 0
    assert t.n_vertices == 10
    assert t.leaf_order == (1, 3, 5, 6, 8, 9)
    assert t.children[0] == (2, 4)
    assert t.children[4] == (5, 6, 7)
    assert [t.level[v] for v in t.leaf_order] == [2, 2, 2, 2, 3, 3]
    assert t.height == 3


def test_build_tree_rejects_bad_input():
    with pytest.raises(MultipleRoots):
        build_tree([None, None])
    with pytest.raises(CycleDetected):
        build_tree([1, 0])  # no root at all
    with pytest.raises(CycleDetected):
        build_tree([None, 2, 1])  # 1 and 2 orbit each other
    with pytest.raises(IndexOutOfRange):
        build_tree([None, 5])
    with pytest.raises(InvalidParameter):
        build_tree([])


def test_ancestral_level_against_chain_oracle():
    for t in corpus(7):
        for u in t.leaf_order:
            for v in t.leaf_order:
                assert ancestral_level(t, u, v) == lca_level_oracle(t, u, v)


def test_ancestral_level_of_vertex_with_itself():
    t = example_tree()
    assert ancestral_level(t, 8, 8) == 3
    assert ancestral_level(t, 0, 0) == 0
    with pytest.raises(IndexOutOfRange):
        ancestral_level(t, 0, 99)


def test_structural_stats_example():
    s = structural_stats(example_tree())
    assert s.L == 6
    assert s.h == 3
    assert s.int_count == 4
    assert s.delta == 3
    assert s.D_root == 14
    assert s.outdegree_sequence == (3, 2, 2, 2, 0, 0, 0, 0, 0, 0)


def test_star():
    t = star(3)
    assert t.parent_list() == [None, 0, 0, 0]
    assert t.height == 1
    with pytest.raises(InvalidParameter):
        star(0)


def test_broom_and_alias():
    t = broom(2, 3)
    assert t.parent_list() == [None, 0, 1, 2, 2, 2]
    assert [t.level[v] for v in t.leaf_order] == [3, 3, 3]
    assert path_broom(2, 3).parent_list() == t.parent_list()
    # zero-length handle degenerates to a star
    assert broom(0, 4).parent_list() == star(4).parent_list()
    with pytest.raises(InvalidParameter):
        broom(-1, 2)
    with pytest.raises(InvalidParameter):
        broom(2, 0)


def test_binary_caterpillar_small():
    assert binary_caterpillar(1).parent_list() == [None]
    assert binary_caterpillar(2).parent_list() == [None, 0, 0]
    assert binary_caterpillar(3).parent_list() == [None, 0, 0, 2, 2]
    t = binary_caterpillar(6)
    assert t.n_leaves == 6
    assert t.n_vertices == 11
    # internal outdegrees are all 2
    assert all(len(c) == 2 for c in t.children if c)


def test_complete_dary():
    t = complete_dary(2, 2)
    assert t.parent_list() == [None, 0, 1, 1, 0, 4, 4]
    assert t.n_leaves == 4
    assert {t.level[v] for v in t.leaf_order} == {2}
    assert complete_dary(3, 0).n_vertices == 1
    assert complete_dary(3, 2).n_leaves == 9
    with pytest.raises(InvalidParameter):
        complete_dary(0, 2)


def test_complete_dary_deep():
    depth = 10 ** 5
    t = complete_dary(1, depth)
    assert t.parent_list() == [None] + list(range(depth))
    assert t.height == depth


def test_preorder_and_leaf_counts_example():
    t = example_tree()
    assert t.preorder == (0, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert leaf_counts(t) == [6, 1, 2, 1, 4, 1, 1, 2, 1, 1]
    assert leaf_counts(build_tree([None])) == [1]


def _walk(tree, v):
    """Vertices below v in preorder, by an explicit walk over children."""
    out, stack = [], [v]
    while stack:
        w = stack.pop()
        out.append(w)
        stack.extend(reversed(tree.children[w]))
    return out


def _preorder_field_trees():
    # corpus trees are numbered in preorder; shuffled ones are not
    rng = seeded_rng(53)
    shuffled = [shuffled_random_tree(rng.randint(1, 40), rng) for _ in range(80)]
    return list(corpus(8)) + shuffled


def test_preorder_and_leaf_ranges_match_a_walk():
    for t in _preorder_field_trees():
        order = t.preorder
        assert sorted(order) == list(range(t.n_vertices))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[p] < pos[v] for v, p in enumerate(t.parent)
                   if p is not None)
        assert list(order) == _walk(t, t.root)
        leaves = [v for v in order if t.is_leaf(v)]
        counts = leaf_counts(t)
        for v in range(t.n_vertices):
            below = [w for w in _walk(t, v) if t.is_leaf(w)]
            assert leaves[t.leaf_start[v]:t.leaf_stop[v]] == below
            brute = sum(1 for w in t.leaf_order if v in ancestor_chain(t, w))
            assert counts[v] == t.leaf_stop[v] - t.leaf_start[v] == brute


def test_subtree_and_branch_groups_on_shuffled_numberings():
    for t in _preorder_field_trees():
        for v in range(t.n_vertices):
            sub, orig = subtree_with_map(t, v)
            assert orig == tuple(_walk(t, v))
            assert [None if p is None else orig[p] for p in sub.parent] == \
                [None] + [t.parent[w] for w in orig[1:]]
        if t.n_vertices == 1:
            continue
        expected = {}
        for pos, w in enumerate(t.leaf_order):
            expected.setdefault(ancestor_chain(t, w)[1], []).append(pos)
        assert branch_leaf_groups(t) == list(expected.items())


def test_build_tree_deep_preorder_fields():
    depth = 10 ** 5
    n = depth + 1
    t = binary_caterpillar(n)
    assert t.height == depth
    assert t.preorder == tuple(range(2 * n - 1))
    spine = range(0, 2 * n - 2, 2)
    assert [t.leaf_start[v] for v in spine] == list(range(n - 1))
    assert all(t.leaf_stop[v] == n for v in spine)
    assert leaf_counts(t)[t.root] == n
    sub, orig = subtree_with_map(t, 2 * (n - 2))
    assert orig == (2 * n - 4, 2 * n - 3, 2 * n - 2)
    assert sub.parent_list() == [None, 0, 0]


def test_greedy_caterpillar_orders_outdegrees_ascending():
    t = greedy_caterpillar([5, 1, 3, 5, 1])
    got = sorted((len(c) for c in t.children if c))
    assert got == [1, 1, 3, 5, 5]
    # backbone outdegrees must ascend root-down
    spine = [t.root]
    while True:
        nxt = [c for c in t.children[spine[-1]] if t.children[c]]
        if not nxt:
            break
        assert len(nxt) == 1
        spine.append(nxt[0])
    degs = [len(t.children[v]) for v in spine]
    assert degs == sorted(degs)
    # zeros are ignored, empty input is not
    assert greedy_caterpillar([2, 0, 0]).parent_list() == star(2).parent_list()
    with pytest.raises(InvalidParameter):
        greedy_caterpillar([0, 0])
    with pytest.raises(InvalidParameter):
        greedy_caterpillar([-1, 2])


def test_star_plus_path():
    t = star_plus_path(3, 2)
    assert t.parent_list() == [None, 0, 0, 0, 0, 4]
    assert star_plus_path(0, 3).n_leaves == 1
    with pytest.raises(InvalidParameter):
        star_plus_path(0, 0)


def test_generate_spec_parsing():
    assert generate("broom:2,3").parent_list() == broom(2, 3).parent_list()
    assert generate("greedy:5,5,3,1,1").n_leaves == 11
    assert generate("dary:3,2").n_leaves == 9
    with pytest.raises(InvalidParameter):
        generate("frobnicate:3")
    with pytest.raises(InvalidParameter):
        generate("broom:2")
    with pytest.raises(InvalidParameter):
        generate("broom:2,x")


def test_subtree_renumbers_preorder():
    sub, orig = subtree_with_map(example_tree(), 4)
    assert sub.parent_list() == [None, 0, 0, 0, 3, 3]
    assert orig == (4, 5, 6, 7, 8, 9)
    assert subtree(example_tree(), 4).parent_list() == sub.parent_list()


def test_branch_leaf_groups_example():
    groups = branch_leaf_groups(example_tree())
    assert groups == [(2, [0, 1]), (4, [2, 3, 4, 5])]


@given(st.data())
def test_levels_and_leaves_consistent_on_random_parent_lists(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    parents = [None] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
    t = build_tree(parents)
    assert t.level[t.root] == 0
    for v, p in enumerate(t.parent):
        if p is not None:
            assert t.level[v] == t.level[p] + 1
    assert t.leaf_order == tuple(sorted(t.leaf_order))
    assert t.n_leaves >= 1
    for v in t.leaf_order:
        assert not t.children[v]
