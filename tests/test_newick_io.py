import pytest
from hypothesis import given, strategies as st

from ancestral import (
    ancestral_matrix,
    build_tree,
    parse_newick,
    parse_newick_with_labels,
    serialize_newick,
    subtree,
)
from ancestral.errors import EmptyInput, NewickSyntaxError, TrailingGarbage

from helpers import EXAMPLE_C_ROWS, corpus, example_tree, seeded_rng


def test_single_vertex():
    t = parse_newick(";")
    assert t.parent_list() == [None]
    assert serialize_newick(t) == ";"


def test_three_leaf_star():
    t = parse_newick("(,,);")
    assert t.parent_list() == [None, 0, 0, 0]


def test_nested_broom():
    t = parse_newick("(((,,)));")
    assert [t.level[v] for v in t.leaf_order] == [3, 3, 3]


def test_six_leaf_example_matches_parent_list_encoding():
    # same shape as the worked example, different vertex numbering
    t = parse_newick("((,),(,,(,)));")
    assert ancestral_matrix(t).rows == EXAMPLE_C_ROWS


def test_whitespace_is_ignored():
    t = parse_newick("  ( ,\t( , ) )\n; ")
    assert t.parent_list() == [None, 0, 0, 2, 2]


def test_labels_round_trip():
    t, labels = parse_newick_with_labels("(a,(b,c)d)e;")
    assert t.parent_list() == [None, 0, 0, 2, 2]
    assert labels == {0: "e", 1: "a", 2: "d", 3: "b", 4: "c"}
    assert serialize_newick(t, labels) == "(a,(b,c)d)e;"
    # plain serialization drops the labels
    assert serialize_newick(t) == "(,(,));"


def test_empty_input():
    with pytest.raises(EmptyInput):
        parse_newick("")
    with pytest.raises(EmptyInput):
        parse_newick("   ")


def test_missing_semicolon_position():
    with pytest.raises(NewickSyntaxError) as err:
        parse_newick("(,)")
    assert err.value.position == 3


def test_unbalanced_parens_position():
    with pytest.raises(NewickSyntaxError) as err:
        parse_newick("((,);")
    assert err.value.position == 4
    with pytest.raises(NewickSyntaxError) as err:
        parse_newick(")")
    assert err.value.position == 0
    with pytest.raises(NewickSyntaxError) as err:
        parse_newick("(,));")
    assert err.value.position == 3


def test_trailing_garbage_position():
    with pytest.raises(TrailingGarbage) as err:
        parse_newick("(,);x")
    assert err.value.position == 4
    # trailing whitespace is fine
    assert parse_newick("(,);  \n").n_leaves == 2


def test_round_trip_on_enumerated_corpus():
    for t in corpus(8):
        text = serialize_newick(t)
        back = parse_newick(text)
        assert back.parent_list() == t.parent_list()
        assert serialize_newick(back) == text


def test_round_trip_random_preorder_trees():
    rng = seeded_rng(13)
    for _ in range(300):
        n = rng.randint(1, 40)
        parents = [None] + [rng.randrange(v) for v in range(1, n)]
        t = subtree(build_tree(parents), 0)
        assert parse_newick(serialize_newick(t)).parent_list() == t.parent_list()


@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=25))
    parents = [None] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
    t = subtree(build_tree(parents), 0)
    assert parse_newick(serialize_newick(t)).parent_list() == t.parent_list()


def test_deep_nesting_round_trip():
    depth = 10 ** 5
    text = "(" * depth + ")" * depth + ";"
    t = parse_newick(text)
    assert t.n_vertices == depth + 1 and t.height == depth
    assert serialize_newick(t) == text
    labelled = "(" * depth + "a" + ")b" * depth + ";"
    t, labels = parse_newick_with_labels(labelled)
    assert labels[depth] == "a" and labels[0] == "b" and len(labels) == depth + 1
    assert serialize_newick(t, labels) == labelled
