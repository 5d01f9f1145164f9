import pytest
from hypothesis import given, strategies as st

from ancestral import (
    OpKind,
    ancestral_level,
    ancestral_matrix,
    apply_op,
    binary_caterpillar,
    broom,
    build_tree,
    canonical_encoding,
    complete_dary,
    eigenvalue_one_certificate,
    eigenvalues,
    encoding_to_tree,
    generate,
    greedy_caterpillar,
    leaf_counts,
    parse_newick,
    path_broom,
    path_incidence_matrix,
    random_tree,
    row_sums,
    serialize_newick,
    star,
    star_plus_path,
    structural_stats,
    subtree,
    valid_specs,
)
from ancestral.errors import (
    AncestralError,
    CycleDetected,
    IndexOutOfRange,
    InvalidParameter,
    MultipleRoots,
)
from ancestral import tree_core
from ancestral.tree_core import (
    _FAMILIES,
    _build_preorder,
    _build_walk,
    subtree_with_map,
)

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


def test_row_sums_are_the_row_sums_of_c():
    # the example tree and the output trees of the operations are not
    # numbered in preorder
    trees = [*corpus(10), example_tree()]
    for kind in OpKind:
        made = [apply_op(t, spec) for t in corpus(6)
                for spec in valid_specs(t, kind)]
        assert made, kind
        trees.extend(made)
    for t in trees:
        row = row_sums(t)
        assert row[t.root] == 0
        assert [row[v] for v in t.leaf_order] == [
            sum(r) for r in ancestral_matrix(t).rows]


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
        leaves = t.leaf_order
        assert list(leaves) == [w for w in _walk(t, t.root) if t.is_leaf(w)]
        counts = leaf_counts(t)
        for v in range(t.n_vertices):
            below = [w for w in _walk(t, v) if t.is_leaf(w)]
            assert list(leaves[t.leaf_start[v]:t.leaf_stop[v]]) == below
            brute = sum(1 for w in t.leaf_order if v in ancestor_chain(t, w))
            assert counts[v] == t.leaf_stop[v] - t.leaf_start[v] == brute


def test_subtree_on_shuffled_numberings():
    for t in _preorder_field_trees():
        for v in range(t.n_vertices):
            sub, orig = subtree_with_map(t, v)
            assert orig == tuple(_walk(t, v))
            assert [None if p is None else orig[p] for p in sub.parent] == \
                [None] + [t.parent[w] for w in orig[1:]]


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


@pytest.mark.parametrize("spec", [
    "star:1", "star:7", "broom:0,1", "broom:3,4", "path-broom:2,5",
    "binary-caterpillar:1", "binary-caterpillar:6", "dary:1,0", "dary:1,9",
    "dary:2,0", "dary:2,5", "dary:3,4", "greedy:5,5,3,1,1", "greedy:0,2,0",
    "star-plus-path:0,3", "star-plus-path:4,2"])
def test_family_vertex_counts_are_exact(spec):
    # the counts that the family cap reads agree with the trees built
    name, _, params = spec.partition(":")
    _, arity, vertices = _FAMILIES[name]
    args = [int(tok) for tok in params.split(",")]
    assert vertices(*(args if arity else [args])) == generate(spec).n_vertices


def test_family_past_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(tree_core, "FAMILY_CAP", 15)
    assert generate("dary:2,3").n_vertices == 15
    with pytest.raises(InvalidParameter,
                       match="'star:15': at least 16 vertices, past the cap 15"):
        generate("star:15")
    # dary:2,40 has 2^41 - 1 vertices; the count stops at the level past the cap
    with pytest.raises(InvalidParameter, match="'dary:2,40': at least 31 "):
        generate("dary:2,40")


def test_dense_outputs_past_the_cap_are_refused(monkeypatch):
    monkeypatch.setattr(tree_core, "DENSE_CAP", 16)
    # star(n): n leaves, n edges and n basis vectors of length n, so star(4)
    # is at the cap and star(5) past it
    for build in (ancestral_matrix, path_incidence_matrix,
                  eigenvalue_one_certificate):
        build(star(4))
        with pytest.raises(InvalidParameter, match=r"5 x 5 entries is past "
                                                   r"the cap 16$"):
            build(star(5))
    # the block-route branch of binary_caterpillar(n) has n - 1 leaves; the
    # exact route builds no block, however many leaves it has
    assert len(eigenvalues(star(30))) == 30
    assert len(eigenvalues(binary_caterpillar(5))) == 5
    with pytest.raises(InvalidParameter,
                       match=r"^branch block of 5 x 5 entries is past "):
        eigenvalues(binary_caterpillar(6))


def test_subtree_renumbers_preorder():
    sub, orig = subtree_with_map(example_tree(), 4)
    assert sub.parent_list() == [None, 0, 0, 0, 3, 3]
    assert orig == (4, 5, 6, 7, 8, 9)
    assert subtree(example_tree(), 4).parent_list() == sub.parent_list()


@given(st.data())
def test_levels_and_leaves_consistent_on_random_parent_lists(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    parents = [None] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
    t = build_tree(parents)
    assert t.level[t.root] == 0
    for v, p in enumerate(t.parent):
        if p is not None:
            assert t.level[v] == t.level[p] + 1
    # leaf_order is the preorder's leaves, and a leaf sits at leaf_start
    assert t.leaf_order == tuple(filter(t.is_leaf, t.preorder))
    assert t.n_leaves >= 1
    for i, v in enumerate(t.leaf_order):
        assert t.leaf_start[v] == i
        assert t.leaf_stop[v] == i + 1


def _build_outcome(build, parents):
    """The built tree, every field of which takes part in equality, or the
    error class."""
    try:
        return build(parents)
    except AncestralError as exc:
        return type(exc)


@st.composite
def _preorder_parent_lists(draw):
    """Each vertex's parent drawn from the root path of the vertex before."""
    n = draw(st.integers(min_value=1, max_value=40))
    parents = [None]
    path = [0]
    for v in range(1, n):
        i = draw(st.integers(0, len(path) - 1))
        del path[i + 1:]
        parents.append(path[i])
        path.append(v)
    return parents


@given(_preorder_parent_lists())
def test_one_pass_build_matches_the_walk_on_preorder_lists(parents):
    t = _build_preorder(parents)
    assert t is not None
    assert t == _build_outcome(_build_walk, parents)
    assert t.preorder == tuple(range(len(parents)))


@given(_preorder_parent_lists(), st.data())
def test_both_routes_give_equal_trees_with_equal_hashes(parents, data):
    one_pass, walked = _build_preorder(parents), _build_walk(parents)
    assert one_pass == walked and hash(one_pass) == hash(walked)
    assert len({one_pass, walked}) == 1
    # a renumbered list is another tree, unless the renumbering keeps it
    label = data.draw(st.permutations(range(len(parents))))
    shuffled = [None] * len(parents)
    for v, p in enumerate(parents):
        shuffled[label[v]] = None if p is None else label[p]
    assert (_build_walk(shuffled) == walked) == (shuffled == parents)


@st.composite
def _shuffled_parent_lists(draw):
    """A valid parent list, its vertices renumbered at random."""
    parents = draw(_preorder_parent_lists())
    label = draw(st.permutations(range(len(parents))))
    out = [None] * len(parents)
    for v, p in enumerate(parents):
        out[label[v]] = None if p is None else label[p]
    return out


_ENTRY = st.one_of(st.none(), st.booleans(), st.integers(-2, 12))


@given(st.one_of(_shuffled_parent_lists(),
                 st.lists(_ENTRY, min_size=1, max_size=12)))
def test_build_tree_matches_the_walk_on_arbitrary_lists(parents):
    # the one-pass route either gives the walk's tree or hands the list on
    assert _build_outcome(build_tree, parents) == \
        _build_outcome(_build_walk, parents)
    t = _build_preorder(parents)
    if t is not None:
        assert t == _build_outcome(_build_walk, parents)


@pytest.mark.parametrize("parents, error", [
    ([None, None], MultipleRoots),
    ([None, 0, None], MultipleRoots),
    ([1, 0], CycleDetected),
    ([None, 2, 1], CycleDetected),
    ([None, 0, 3, 2], CycleDetected),
    ([None, 5], IndexOutOfRange),
    ([None, 0, -1], IndexOutOfRange),
    ([None, 0, 1.0], IndexOutOfRange),
    ([None, True], IndexOutOfRange),
    ([None, False, 3, 2], IndexOutOfRange),
    ([None, False, False], IndexOutOfRange),
])
def test_invalid_lists_raise_the_same_error_on_both_routes(parents, error):
    assert _build_preorder(parents) is None
    with pytest.raises(error):
        build_tree(parents)
    with pytest.raises(error):
        _build_walk(parents)


def test_generators_and_the_parser_take_the_one_pass_route():
    rng = seeded_rng(31)
    for spec in ("star:3", "broom:2,3", "binary-caterpillar:5", "dary:3,2",
                 "greedy:3,1,2", "star-plus-path:2,3"):
        t = generate(spec)
        made = [t, subtree(t, t.children[0][-1]),
                parse_newick(serialize_newick(t)),
                encoding_to_tree(canonical_encoding(t)),
                random_tree(t.n_vertices, rng)]
        for m in made:
            assert _build_preorder(m.parent) is not None
