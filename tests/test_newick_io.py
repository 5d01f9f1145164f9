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

from helpers import (
    EXAMPLE_C_ROWS,
    corpus,
    example_tree,
    seeded_rng,
    shuffled_random_tree,
)


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


# each malformed input with the error class and position it raised when the
# table was first recorded, under the character-by-character reader
@pytest.mark.parametrize("text, error, position", [
    ("", EmptyInput, None),
    ("   ", EmptyInput, None),
    ("\n\t ", EmptyInput, None),
    ("\u2003", EmptyInput, None),
    ("  x(,);", NewickSyntaxError, 3),
    ("  ) ;", NewickSyntaxError, 2),
    ("\t(,)\n;x", TrailingGarbage, 6),
    ("(a b);", NewickSyntaxError, 3),
    ("a(,);", NewickSyntaxError, 1),
    ("ab (,);", NewickSyntaxError, 3),
    ("(a)(b);", NewickSyntaxError, 3),
    ("(:,);", NewickSyntaxError, 1),
    ("(a:1,b);", NewickSyntaxError, 2),
    ("(,)a:1;", NewickSyntaxError, 4),
    ("([,);", NewickSyntaxError, 1),
    ("(a,b)[c];", NewickSyntaxError, 5),
    ("\u00e9;", NewickSyntaxError, 0),
    ("(\u00e9,);", NewickSyntaxError, 1),
    ("(a,\u00e9);", NewickSyntaxError, 3),
    ("(a\u00e9,);", NewickSyntaxError, 2),
    ("ab\u00e9;", NewickSyntaxError, 2),
    ("(a,b\u00e91);", NewickSyntaxError, 4),
    ("(,)\x00;", NewickSyntaxError, 3),
    ("a;b", TrailingGarbage, 2),
    ("(,);;", TrailingGarbage, 4),
    (";x", TrailingGarbage, 1),
    ("((((", NewickSyntaxError, 4),
    ("((((a", NewickSyntaxError, 5),
    ("(((,", NewickSyntaxError, 4),
    ("((a,b),c", NewickSyntaxError, 8),
    ("(;", NewickSyntaxError, 1),
    (",;", NewickSyntaxError, 0),
    ("(,)", NewickSyntaxError, 3),
    ("(a,)b c;", NewickSyntaxError, 6),
])
def test_malformed_input_error_and_position(text, error, position):
    with pytest.raises(error) as err:
        parse_newick(text)
    assert type(err.value) is error
    assert getattr(err.value, "position", None) == position


def test_unicode_whitespace_separates_tokens():
    for text in ("\u2003(,);", "(\u2003,\u2003);", "(,)\u2003;\u2003"):
        assert parse_newick(text).parent_list() == [None, 0, 0]


def test_serialize_shuffled_numberings():
    # the text follows the preorder, whatever the vertex numbers
    rng = seeded_rng(29)
    for _ in range(200):
        t = shuffled_random_tree(rng.randint(1, 30), rng)
        text = serialize_newick(t)
        assert parse_newick(text).parent_list() == \
            subtree(t, t.root).parent_list()
        labels = {v: f"v{v}" for v in range(t.n_vertices)}
        back, got = parse_newick_with_labels(serialize_newick(t, labels))
        assert [got[i] for i in range(back.n_vertices)] == \
            [labels[v] for v in t.preorder]


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
