import pytest
from hypothesis import given, strategies as st

from ancestral import (
    ancestral_level,
    ancestral_matrix,
    binary_caterpillar,
    block_reconstruction,
    build_tree,
    gram_check,
    gram_product,
    matrix_text,
    path_incidence_matrix,
    subtree,
)

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
    # vertex numbers are shuffled, so leaf_order is not ascending and the
    # rows follow the preorder, not the vertex numbers
    rng = seeded_rng(31)
    for _ in range(120):
        t = shuffled_random_tree(rng.randint(1, 60), rng)
        rows = ancestral_matrix(t).rows
        leaves = t.leaf_order
        assert rows == tuple(tuple(ancestral_level(t, u, v) for v in leaves)
                             for u in leaves)
        assert rows == gram_product(path_incidence_matrix(t))


def _joined_rows(t):
    return [" ".join(map(str, row)) for row in ancestral_matrix(t).rows]


def test_matrix_text_is_the_matrix_rows_joined():
    # the same fill gives both: every small shape, shuffled numberings (the
    # depth-first build, leaf_order not ascending), the single vertex, a
    # path with one leaf, and levels of more than one digit
    rng = seeded_rng(32)
    trees = [*corpus(9), build_tree([None]), build_tree([None, 0, 1, 2]),
             binary_caterpillar(30),
             *(shuffled_random_tree(rng.randint(1, 80), rng) for _ in range(80))]
    for t in trees:
        assert matrix_text(t) == _joined_rows(t)
    assert matrix_text(build_tree([None])) == ["0"]
    assert matrix_text(build_tree([None, 0, 1, 2])) == ["3"]


@given(st.lists(st.integers(min_value=0), min_size=1, max_size=60))
def test_matrix_text_on_random_trees(draws):
    parents = [None] + [d % v for v, d in enumerate(draws, 1)]
    t = build_tree(parents)
    assert matrix_text(t) == _joined_rows(t)


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


def _matmul_transpose(rows):
    return tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in rows)
                 for r1 in rows)


def test_gram_product_is_exact_matmul():
    inc = path_incidence_matrix(example_tree())
    assert gram_product(inc) == _matmul_transpose(inc.rows) == EXAMPLE_C_ROWS
    # the bit-mask product against the plain one, on every small shape
    for t in corpus(8):
        inc = path_incidence_matrix(t)
        assert gram_product(inc) == _matmul_transpose(inc.rows)


def test_block_reconstruction_on_corpus():
    for t in corpus(9):
        assert block_reconstruction(t) == ancestral_matrix(t).rows


def test_single_vertex_matrices():
    t = build_tree([None])
    assert ancestral_matrix(t).rows == ((0,),)
    inc = path_incidence_matrix(t)
    assert inc.n == 1 and inc.m == 0
    assert gram_check(t)


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
