"""The three spectral-radius-increasing operations and their guard rails."""

import pytest

from ancestral import (
    OpKind,
    OpSpec,
    ancestral_matrix,
    apply_op,
    branch_shift,
    leaf_swap,
    rho,
    spectral_radius,
    star,
    star_shift,
    valid_specs,
    witness_leaves,
)
from ancestral.errors import (
    BranchOnPath,
    InvalidPath,
    NotAChild,
    NotAllChildrenLeaves,
    TooFewChildren,
    VkIsLeaf,
    W1IsLeaf,
    W2NotLeaf,
)
from ancestral.tree_ops import leaf_correspondence

from helpers import corpus, example_tree, seeded_rng


def test_branch_shift_moves_subtree_down():
    ex = example_tree()
    spec = OpSpec(OpKind.BRANCH_SHIFT, path=(0, 4, 7), branch_root=2)
    after = branch_shift(ex, spec)
    assert after.parent[2] == 7
    # the shifted leaves sit two levels deeper now
    assert after.level[1] == ex.level[1] + 2
    assert set(after.leaf_order) == set(ex.leaf_order)


def test_branch_shift_guards():
    ex = example_tree()
    with pytest.raises(VkIsLeaf):
        branch_shift(ex, OpSpec(OpKind.BRANCH_SHIFT, (0, 4, 5), branch_root=2))
    with pytest.raises(BranchOnPath):
        branch_shift(ex, OpSpec(OpKind.BRANCH_SHIFT, (0, 4, 7), branch_root=4))
    with pytest.raises(InvalidPath):
        branch_shift(ex, OpSpec(OpKind.BRANCH_SHIFT, (0, 4, 7), branch_root=5))
    with pytest.raises(InvalidPath):
        branch_shift(ex, OpSpec(OpKind.BRANCH_SHIFT, (0, 7), branch_root=2))
    with pytest.raises(InvalidPath):
        branch_shift(ex, OpSpec(OpKind.BRANCH_SHIFT, (0,), branch_root=2))


def test_star_shift_splits_a_star():
    t = star(4)
    after = star_shift(t, 0, 2)
    assert after.n_vertices == 6
    assert after.children[0] == (2, 5)
    assert after.children[5] == (1, 3, 4)
    assert set(after.leaf_order) == {1, 2, 3, 4}


def test_star_shift_guards():
    with pytest.raises(TooFewChildren):
        star_shift(star(1), 0, 1)
    with pytest.raises(NotAChild):
        star_shift(star(3), 0, 0)
    with pytest.raises(NotAllChildrenLeaves):
        star_shift(example_tree(), 0, 2)


def test_leaf_swap_exchanges_parents():
    ex = example_tree()
    spec = OpSpec(OpKind.LEAF_SWAP, path=(0, 4), branch_root=2, leaf=5)
    after = leaf_swap(ex, spec)
    assert after.parent[2] == 4 and after.parent[5] == 0
    # outdegree multiset is preserved
    before_degs = sorted(len(c) for c in ex.children)
    assert sorted(len(c) for c in after.children) == before_degs


def test_leaf_swap_guards():
    ex = example_tree()
    with pytest.raises(W1IsLeaf):
        leaf_swap(ex, OpSpec(OpKind.LEAF_SWAP, (4, 7), branch_root=5, leaf=8))
    with pytest.raises(W2NotLeaf):
        leaf_swap(ex, OpSpec(OpKind.LEAF_SWAP, (0, 4), branch_root=2, leaf=7))
    with pytest.raises(InvalidPath):
        # w1 may not contain the path itself
        leaf_swap(ex, OpSpec(OpKind.LEAF_SWAP, (0, 2), branch_root=2, leaf=1))
    with pytest.raises(InvalidPath):
        # w1 must be a child of the first path vertex
        leaf_swap(ex, OpSpec(OpKind.LEAF_SWAP, (0, 4), branch_root=1, leaf=5))
    with pytest.raises(VkIsLeaf):
        leaf_swap(ex, OpSpec(OpKind.LEAF_SWAP, (0, 4, 5), branch_root=2, leaf=5))


def test_valid_specs_all_apply():
    # every generated spec is accepted, and leaf identity is preserved
    for t in corpus(6):
        for kind in OpKind:
            for spec in valid_specs(t, kind):
                after = apply_op(t, spec)
                assert set(after.leaf_order) == set(t.leaf_order)


def test_entrywise_domination_for_shift_ops():
    # branch and star shifts never decrease any matrix entry
    for t in corpus(6):
        rows = ancestral_matrix(t).rows
        for kind in (OpKind.BRANCH_SHIFT, OpKind.STAR_SHIFT):
            for spec in valid_specs(t, kind):
                after = apply_op(t, spec)
                rows2 = ancestral_matrix(after).rows
                pairs = leaf_correspondence(t, after)
                for i, i2 in pairs:
                    for j, j2 in pairs:
                        assert rows2[i2][j2] >= rows[i][j]


def test_rho_never_decreases_on_small_corpus():
    for t in corpus(6):
        base = rho(t)
        for kind in OpKind:
            for spec in valid_specs(t, kind):
                assert rho(apply_op(t, spec)) >= base - 1e-9


def test_strict_increase_under_perron_witness():
    checked = 0
    for t in corpus(7):
        sr = spectral_radius(t)
        for kind in OpKind:
            for spec in valid_specs(t, kind):
                if all(sr.perron[t.leaf_start[v]] > 1e-6
                       for v in witness_leaves(t, spec)):
                    assert rho(apply_op(t, spec)) > sr.rho + 1e-9
                    checked += 1
    assert checked > 50


def test_witness_leaves_shapes():
    ex = example_tree()
    spec = OpSpec(OpKind.BRANCH_SHIFT, (0, 4, 7), branch_root=2)
    assert witness_leaves(ex, spec) == (8, 9)
    spec = OpSpec(OpKind.STAR_SHIFT, (2,), leaf=1)
    assert witness_leaves(ex, spec) == (1, 3)
    spec = OpSpec(OpKind.LEAF_SWAP, (0, 4), branch_root=2, leaf=5)
    assert witness_leaves(ex, spec) == (5, 6, 8, 9)


def test_apply_op_dispatch():
    t = star(3)
    out = apply_op(t, OpSpec(OpKind.STAR_SHIFT, (0,), leaf=1))
    assert out.n_vertices == 5


@pytest.mark.parametrize("path", [(), (0, 99), (0, 1)])
def test_star_shift_path_is_one_vertex(path):
    with pytest.raises(InvalidPath):
        apply_op(star(3), OpSpec(OpKind.STAR_SHIFT, path, leaf=1))
