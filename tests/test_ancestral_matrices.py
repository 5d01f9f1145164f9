import pytest
from hypothesis import given, strategies as st

from ancestral import (
    ancestral_level,
    ancestral_matrix,
    block_reconstruction,
    build_tree,
    gram_check,
    gram_product,
    path_incidence_matrix,
    subtree,
)
from ancestral.ancestral_matrices import format_matrix

from helpers import (
    EXAMPLE_C_ROWS,
    EXAMPLE_INCIDENCE_ROWS,
    bfs_distances,
    corpus,
    example_tree,
    lca_level_oracle,
    seeded_rng,
    shuffled_random_tree,
)


def test_example_ancestral_matrix():
    assert ancestral_matrix(example_tree()).rows == EXAMPLE_C_ROWS


def test_example_incidence_matrix():
    inc = path_incidence_matrix(example_tree())
    assert inc.rows == EXAMPLE_INCIDENCE_ROWS
    assert inc.n == 6 and inc.m == 9
    # edges are ordered by their child endpoint
    assert inc.edge_order == tuple(
        (example_tree().parent[v], v) for v in range(1, 10))


def test_entries_are_lca_levels():
    for t in corpus(7):
        rows = ancestral_matrix(t).rows
        for i, u in enumerate(t.leaf_order):
            for j, v in enumerate(t.leaf_order):
                assert rows[i][j] == lca_level_oracle(t, u, v)


def test_matrix_on_shuffled_numberings():
    # vertex numbers are shuffled, so preorder leaf positions differ from
    # leaf_order and the filled matrix has to be permuted back
    rng = seeded_rng(31)
    permuted = 0
    for _ in range(120):
        t = shuffled_random_tree(rng.randint(1, 60), rng)
        rows = ancestral_matrix(t).rows
        leaves = t.leaf_order
        assert rows == tuple(tuple(ancestral_level(t, u, v) for v in leaves)
                             for u in leaves)
        assert rows == gram_product(path_incidence_matrix(t))
        if [v for v in t.preorder if t.is_leaf(v)] != list(leaves):
            permuted += 1
    assert permuted > 50


def test_diagonal_is_strict_row_maximum():
    for t in corpus(8):
        rows = ancestral_matrix(t).rows
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if i != j:
                    assert entry < row[i]
            assert row[i] == t.level[t.leaf_order[i]]


def test_incidence_row_sums_are_leaf_depths():
    for t in corpus(8):
        inc = path_incidence_matrix(t)
        dist = bfs_distances(t, t.root)
        for i, v in enumerate(t.leaf_order):
            assert sum(inc.rows[i]) == dist[v]


def test_incidence_column_sums_count_leaves_below():
    t = example_tree()
    inc = path_incidence_matrix(t)
    for k, (_, child) in enumerate(inc.edge_order):
        below = sum(1 for v in t.leaf_order
                    if child in set(_walk_to_root(t, v)))
        assert sum(row[k] for row in inc.rows) == below


def _walk_to_root(t, v):
    while v is not None:
        yield v
        v = t.parent[v]


def test_gram_identity_on_corpus():
    for t in corpus(9):
        assert gram_check(t)


def test_gram_product_is_exact_matmul():
    inc = path_incidence_matrix(example_tree())
    manual = tuple(
        tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in inc.rows)
        for r1 in inc.rows)
    assert gram_product(inc) == manual == EXAMPLE_C_ROWS


def test_block_reconstruction_on_corpus():
    for t in corpus(9):
        assert block_reconstruction(t) == ancestral_matrix(t).rows


def test_single_vertex_matrices():
    t = build_tree([None])
    assert ancestral_matrix(t).rows == ((0,),)
    inc = path_incidence_matrix(t)
    assert inc.n == 1 and inc.m == 0
    assert gram_check(t)


def test_format_matrix():
    assert format_matrix(((1, 2), (3, 4))) == "1 2\n3 4"


@given(st.data())
def test_symmetry_and_block_zeros_property(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    parents = [None] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
    t = subtree(build_tree(parents), 0)
    rows = ancestral_matrix(t).rows
    for i, u in enumerate(t.leaf_order):
        for j, v in enumerate(t.leaf_order):
            assert rows[i][j] == rows[j][i]
            # zero entry exactly when the leaves meet only at the root
            assert (rows[i][j] == 0) == (i != j and lca_level_oracle(t, u, v) == 0)
    assert gram_check(t)
