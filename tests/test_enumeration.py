"""Exhaustive tree classes, canonical encodings and extremality search."""

import math
import random
import re

import pytest

from ancestral import enumeration
from ancestral import (
    broom,
    build_tree,
    by_leaf_count,
    by_outdegree_sequence,
    by_vertex_count,
    by_vertices_and_leaves,
    canonical_encoding,
    class_size,
    dary_by_leaves,
    encoding_to_tree,
    enumerate_class,
    random_tree,
    rho,
    row_sums,
    series_reduced,
    spectral_radius,
    star,
    subtree,
    verify_claim,
    verify_extremal,
)
from ancestral.errors import ClassTooLarge, InvalidParameter
from ancestral.spectral import SpectralRadius

from helpers import (
    BINARY_BY_LEAVES,
    ROOTED_TREE_COUNTS,
    binary_by_leaves_oracle,
    rooted_tree_count_oracle,
    seeded_rng,
)


def test_vertex_count_classes_match_both_oracles():
    for n in range(1, 11):
        size = class_size(by_vertex_count(n))
        assert size == ROOTED_TREE_COUNTS[n - 1]
        assert size == rooted_tree_count_oracle(n)


def test_encodings_unique_sorted_and_round_trip():
    for n in range(1, 9):
        encs = [canonical_encoding(t) for t in enumerate_class(by_vertex_count(n))]
        assert len(set(encs)) == len(encs)
        assert encs == sorted(encs)
        for enc in encs:
            assert canonical_encoding(encoding_to_tree(enc)) == enc


def test_enumerated_trees_are_preorder_numbered():
    for t in enumerate_class(by_vertex_count(7)):
        assert t.n_vertices == 7
        assert all(t.parent[v] < v for v in range(1, 7))


def test_binary_classes_by_leaves():
    for n in range(1, 9):
        size = class_size(dary_by_leaves(2, n))
        assert size == BINARY_BY_LEAVES[n - 1]
        assert size == binary_by_leaves_oracle(n)
    for t in enumerate_class(dary_by_leaves(2, 6)):
        assert all(len(c) in (0, 2) for c in t.children)
        assert t.n_leaves == 6


def test_ternary_classes_by_leaves():
    sizes = [class_size(dary_by_leaves(3, n)) for n in range(1, 10)]
    assert sizes == [1, 0, 1, 0, 1, 0, 2, 0, 4]


def test_dary_needs_d_at_least_two():
    with pytest.raises(InvalidParameter):
        dary_by_leaves(1, 5)


def test_series_reduced_counts_and_shape():
    sizes = [class_size(series_reduced(n)) for n in range(1, 8)]
    assert sizes == [1, 1, 2, 5, 12, 33, 90]
    for t in enumerate_class(series_reduced(5)):
        assert t.n_leaves == 5
        assert all(len(c) != 1 for c in t.children)


def test_outdegree_sequence_class():
    with_zeros = [canonical_encoding(t)
                  for t in enumerate_class(by_outdegree_sequence((2, 2, 0, 0, 0)))]
    without = [canonical_encoding(t)
               for t in enumerate_class(by_outdegree_sequence((2, 2)))]
    assert with_zeros == without
    # both internal slots have outdegree 2, so the root keeps a leaf child
    # and the shape is forced
    assert len(with_zeros) == 1
    for t in enumerate_class(by_outdegree_sequence((2, 2))):
        assert sorted(len(c) for c in t.children) == [0, 0, 0, 2, 2]
    # {3, 1} splits two ways: the unary vertex above or beside the others
    assert class_size(by_outdegree_sequence((3, 1))) == 2
    with pytest.raises(InvalidParameter):
        by_outdegree_sequence((2, -1))


def test_leaf_count_class_is_bounded():
    assert class_size(by_leaf_count(2, 5)) == 7
    for t in enumerate_class(by_leaf_count(2, 5)):
        assert t.n_leaves == 2 and t.n_vertices <= 5


def test_vertices_and_leaves_class():
    trees = list(enumerate_class(by_vertices_and_leaves(7, 3)))
    reference = [t for t in enumerate_class(by_vertex_count(7)) if t.n_leaves == 3]
    assert len(trees) == len(reference)
    assert all(t.n_vertices == 7 and t.n_leaves == 3 for t in trees)


def _leaves_of(enc):
    count, stack = 0, [enc]
    while stack:
        node = stack.pop()
        count += not node
        stack.extend(node)
    return count


def _outdegrees_of(enc):
    degrees, stack = [], [enc]
    while stack:
        node = stack.pop()
        degrees.append(len(node))
        stack.extend(node)
    return tuple(sorted(degrees, reverse=True))


def test_direct_generators_match_filtered_vertex_classes():
    # oracle: filter every tree with n vertices by leaves or outdegrees
    for n in range(1, 12):
        every = enumeration._walk("vertices", n)
        for leaves in range(n + 2):
            want = [enc for enc in every if _leaves_of(enc) == leaves]
            cls = by_vertices_and_leaves(n, leaves)
            assert list(enumeration._class_encodings(cls)) == want, (n, leaves)
        by_degrees = {}
        for enc in every:
            by_degrees.setdefault(_outdegrees_of(enc), []).append(enc)
        covered = 0
        for part in enumeration.outdegree_sequences(n):
            cls = by_outdegree_sequence(part)
            got = list(enumeration._class_encodings(cls))
            assert got == by_degrees.get(cls.params, []), part
            covered += len(got)
        assert covered == len(every)
    up_to_11 = [enc for size in range(1, 12) for enc in enumeration._walk("vertices", size)]
    for leaves in range(1, 7):
        want = [enc for enc in up_to_11 if _leaves_of(enc) == leaves]
        assert list(enumeration._class_encodings(by_leaf_count(leaves, 11))) == want
        # a series-reduced tree of l leaves has at most 2l - 1 vertices
        want = sorted(enc for enc in want if 1 not in _outdegrees_of(enc))
        assert list(enumeration._class_encodings(series_reduced(leaves))) == want
    for d in (2, 3, 4):
        # a d-ary tree of l leaves has l + (l - 1) / (d - 1) vertices
        for leaves in range(1, 12):
            if leaves + (leaves - 1) // (d - 1) > 11:
                break
            want = sorted(enc for enc in up_to_11 if _leaves_of(enc) == leaves
                          and set(_outdegrees_of(enc)) <= {0, d})
            got = list(enumeration._class_encodings(dary_by_leaves(d, leaves)))
            assert got == want, (d, leaves)


def _pools():
    """A copy of every pool built so far, by kind."""
    return {kind: dict(memo) for kind, memo in enumeration._MEMO.items()}


def test_one_tree_classes_skip_the_vertex_pool():
    before = _pools().get(("vertices", None))
    # the stars of 10,000 leaves: a root that wide needs no recursion
    for cls in (by_vertices_and_leaves(16, 15), by_outdegree_sequence((15,)),
                by_leaf_count(15, 16), by_outdegree_sequence((10000,)),
                by_vertices_and_leaves(10001, 10000), dary_by_leaves(10000, 10000)):
        assert class_size(cls) == 1
        assert len(list(enumeration._class_encodings(cls))) == 1
    assert _pools().get(("vertices", None)) == before


def _keys_up_to(n_max):
    for n in range(n_max + 1):
        yield "vertices", n
        for leaves in range(n + 2):
            yield "pairs", (n, leaves)
        for part in enumeration.outdegree_sequences(n):
            yield "outdegrees", part + (0,) * (n - len(part))
    # a d-ary class is the outdegree key of its profile, yielded above
    for n in range(n_max // 2 + 2):
        yield "reduced", n


def _count(kind, key, cap):
    """The count of one key from the kind table."""
    return enumeration._KINDS[kind].count(key, cap)


def test_counts_equal_pool_lengths():
    for kind, key in _keys_up_to(12):
        size = len(enumeration._walk(kind, key))
        assert _count(kind, key, 10 ** 6) == size, (kind, key)
        # a count past the cap saturates at cap + 1
        assert _count(kind, key, 3) == min(size, 4), (kind, key)


def test_every_child_key_has_a_nonempty_pool():
    # so every part of a key is realized by some tree, and the search needs
    # no count to drop a part
    for kind, key in _keys_up_to(14):
        for part in enumeration._parts(kind, key):
            for child in part:
                assert _count(kind, child, 1) > 0, (kind, key, child)


def test_leads_and_their_splits_are_the_parts_by_distinct_child():
    # so a walk of the leads' splits sees each (part, distinct child) of the
    # full walk of parts exactly once
    for kind, key in _keys_up_to(12):
        rule = enumeration._KINDS[kind]
        leads = enumeration._leads(kind, key)
        pairs = [(lead, tuple(sorted((lead, *split), reverse=True)))
                 for lead, _, rest in leads
                 for split in enumeration._descending(rest, rule.step)]
        parts = list(enumeration._parts(kind, key))
        want = [(child, part) for part in parts for child in dict.fromkeys(part)]
        assert sorted(pairs) == sorted(want), (kind, key)
        assert len(set(pairs)) == len(pairs), (kind, key)
        # every lead is in some part, and each carries its key bound
        assert {lead for lead, _ in want} == {lead for lead, _, _ in leads}
        assert all(bound == rule.bound(lead)[0] for lead, bound, _ in leads)
        assert (None in rule.roots(key)) == (() in parts), (kind, key)


def test_vertex_counts_sum_the_pair_counts_without_pools():
    cap = 10 ** 5  # exact up to 15 vertices, saturated above
    before = _pools()
    for n in range(31):
        by_leaves = sum(_count("pairs", (n, leaves), cap)
                        for leaves in range(n + 1))
        assert min(by_leaves, cap + 1) == _count("vertices", n, cap), n
    assert _pools() == before


def test_vertex_counts_sum_the_pair_counts_exactly():
    cap = 10 ** 30
    for n in range(41):
        assert sum(_count("pairs", (n, leaves), cap)
                   for leaves in range(n + 1)) == _count("vertices", n, cap), n


def test_counts_far_beyond_any_pool():
    # OEIS A000081 and A000669
    assert _count("vertices", 30, 10 ** 12) == 354_426_847_597
    assert _count("reduced", 16, 10 ** 9) == 2_253_676
    assert _count("reduced", 20, 10 ** 9) == 256_738_751


def _injections(kind, key):
    """The keys that a one-to-one map sends the trees of key into."""
    if kind == "vertices":
        yield key + 1  # a unary new root
    elif kind == "pairs":
        n, leaves = key
        yield n + 1, leaves  # a unary new root
        if n > 1:
            yield n + 1, leaves + 1  # a leaf added to the root
    elif kind == "outdegrees":
        # a new root of outdegree v over the tree and v - 1 leaves
        for v in range(1, 5):
            yield tuple(sorted(key + (v,) + (0,) * (v - 1), reverse=True))
    else:
        yield key + 1  # a new root over the tree and one leaf


def test_counts_are_monotone_along_sub_keys():
    # so the count may stop at the first sub-key past the cap
    cap = 10 ** 9
    for kind, key in _keys_up_to(12):
        count = _count(kind, key, cap)
        for image in _injections(kind, key):
            assert _count(kind, image, cap) >= count, (kind, key, image)


def test_many_distinct_outdegrees_are_refused_from_a_few():
    # 20 distinct outdegrees pass the cap inside the box of the first eight,
    # so no layer of the 2^20 sub-vectors is counted
    key = tuple(range(20, 0, -1)) + (0,) * 191
    assert _count("outdegrees", key, 10 ** 6) == 10 ** 6 + 1


def test_an_oversized_class_is_refused_without_a_pool():
    before = _pools()
    with pytest.raises(ClassTooLarge):
        class_size(by_vertices_and_leaves(1000, 500))
    assert _pools() == before


def test_a_class_of_trees_past_the_family_cap_is_refused_before_counting(
        monkeypatch):
    # one tree of 3,000,001 vertices, and a key list that would hold 10^11
    # pairs: each is refused from its parameters, before any key is counted
    monkeypatch.setitem(enumeration._KINDS, "pairs", None)
    monkeypatch.setitem(enumeration._KINDS, "outdegrees", None)
    for cls, most in ((by_outdegree_sequence([3 * 10 ** 6]), 3 * 10 ** 6 + 1),
                      (by_leaf_count(2, 10 ** 11), 10 ** 11)):
        with pytest.raises(ClassTooLarge, match=f"up to {most} vertices"):
            class_size(cls)


def _classes_up_to(n_max):
    """A class of every kind whose trees have at most n_max vertices."""
    for n in range(1, n_max + 1):
        yield by_vertex_count(n)
        for leaves in range(1, n + 1):
            yield by_vertices_and_leaves(n, leaves)
            yield by_leaf_count(leaves, n)
        for part in enumeration.outdegree_sequences(n):
            yield by_outdegree_sequence(part)
    for leaves in range(1, (n_max + 1) // 2 + 1):
        yield series_reduced(leaves)
        for d in (2, 3, 4):
            yield dary_by_leaves(d, leaves)


def _brute_force_report(cls, claimed, tol):
    """The report of verify_extremal from spectral_radius of every tree."""
    scored = [(spectral_radius(encoding_to_tree(enc)).rho, enc)
              for enc in enumeration._class_encodings(cls)]
    rho_max = max(rho for rho, _ in scored)
    rho_claimed = spectral_radius(claimed).rho
    return (rho_claimed >= rho_max - tol,
            min(enc for rho, enc in scored if rho == rho_max),
            rho_max, rho_claimed,
            sorted(enc for rho, enc in scored if rho >= rho_max - tol))


def _largest_row_sum(t):
    row = row_sums(t)
    return max(row[v] for v in t.leaf_order)


def test_row_bound_recurrence_is_the_largest_row_sum():
    # every branch of at most 12 vertices, as the one branch of a tree
    branches = enumeration._Branches()
    for n in range(1, 13):
        for enc in enumeration._walk("vertices", n):
            one_branch = encoding_to_tree((enc,))
            assert branches.rb(enc) == (_largest_row_sum(one_branch),
                                        _leaves_of(enc)), enc


def test_key_bound_is_the_largest_row_bound_of_its_pool():
    # so a solved rho, at most its row bound, never exceeds its key's bound
    branches = enumeration._Branches()
    for kind, key in _keys_up_to(12):
        bound, most = enumeration._KINDS[kind].bound(key)
        pool = enumeration._walk(kind, key)
        for enc in pool:
            assert branches.rb(enc)[0] <= bound, (kind, key, enc)
            assert _leaves_of(enc) <= most, (kind, key, enc)
        # the caterpillar of the key attains it
        assert bound == max((branches.rb(enc)[0] for enc in pool), default=0)


def test_above_is_the_pool_filtered_by_row_bound():
    branches = enumeration._Branches()
    for kind, key in _keys_up_to(10):
        pool = enumeration._walk(kind, key)
        for theta in range(enumeration._KINDS[kind].bound(key)[0] + 2):
            want = [enc for enc in pool if branches.rb(enc)[0] >= theta]
            assert list(branches.above(kind, key, theta)) == want, (
                kind, key, theta)


def test_pruned_search_matches_brute_force(monkeypatch):
    for cls in _classes_up_to(10):
        encs = list(enumeration._class_encodings(cls))
        if not encs:
            continue
        # a claimed tree inside the class and one that is not the maximum
        for claimed in (encoding_to_tree(encs[-1]), star(3)):
            for tol in (1e-7, 0.5, 5.0):
                monkeypatch.setattr(enumeration, "TIE_WINDOW", tol)
                report = verify_extremal(cls, claimed)
                got = (report.holds, canonical_encoding(report.argmax),
                       report.rho_max, report.rho_claimed,
                       [canonical_encoding(t) for t in report.ties])
                assert got == _brute_force_report(cls, claimed, tol), (cls, tol)


def test_search_solves_few_branches(monkeypatch):
    # every solve, the claimed tree's included
    solved = []
    solve = enumeration.spectral_radius

    def counting_solve(tree):
        solved.append(tree)
        return solve(tree)

    monkeypatch.setattr(enumeration, "spectral_radius", counting_solve)
    cls = by_vertices_and_leaves(14, 6)
    report = verify_extremal(cls, broom(7, 6))
    assert report.holds and report.rho_max == 43.0
    branches = {branch for enc in enumeration._class_encodings(cls)
                for branch in enc}
    assert 0 < 100 * len(solved) < len(branches)


def test_search_walks_the_splits_of_few_leads(monkeypatch):
    # every part the pairs step completes, with the caches cleared: a walk
    # of every part of the nine keys the search meets ends 414 of them
    walked = {"calls": 0, "parts": 0}
    rule = enumeration._KINDS["pairs"]

    def counting_step(rem, top):
        walked["calls"] += 1
        for part, rest in rule.step(rem, top):
            walked["parts"] += rest is None
            yield part, rest

    monkeypatch.setitem(enumeration._KINDS, "pairs",
                        rule._replace(step=counting_step))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_FORESTS", {})
    enumeration._leads.cache_clear()
    report = verify_extremal(by_vertices_and_leaves(14, 6), broom(7, 6))
    assert report.holds and report.rho_max == 43.0
    assert 0 < 10 * walked["parts"] < 414
    assert 0 < 10 * walked["calls"] < 1383


def test_search_stops_once_a_bound_falls_below_the_best(monkeypatch):
    # a fake rho, never above the branch's row bound, that puts the
    # branches of maximal row bound 3 below it: the second round then finds
    # a better branch and stops before it reaches the threshold
    cls = by_vertices_and_leaves(10, 5)
    encs = list(enumeration._class_encodings(cls))
    row_bounds = enumeration._Branches()
    top = max(row_bounds.rb(branch)[0] for enc in encs for branch in enc)

    def fake_rho(tree):
        bound = _largest_row_sum(tree)
        return bound - 3 if bound == top else bound

    solved = []

    def fake_solve(tree):
        solved.append(tree)
        return SpectralRadius(rho=fake_rho(tree), perron=())

    monkeypatch.setattr(enumeration, "spectral_radius", fake_solve)
    tol = 1e-7
    monkeypatch.setattr(enumeration, "TIE_WINDOW", tol)
    scored = enumeration._contenders(cls)
    reaching = {branch for enc in encs for branch in enc
                if row_bounds.rb(branch)[0] >= top - 3}
    assert 0 < len(solved) < len(reaching)
    brute = [(max(fake_rho(encoding_to_tree((branch,))) for branch in enc),
              enc) for enc in encs]
    rho_max = max(value for value, _ in brute)
    assert scored == [(value, enc) for value, enc in brute
                      if value >= rho_max - tol]


def test_search_builds_no_pool_of_the_class(monkeypatch):
    monkeypatch.setattr(enumeration, "_MEMO", {})
    report = verify_extremal(by_vertices_and_leaves(14, 6), broom(7, 6))
    assert report.holds and len(report.ties) == 1
    assert (14, 6) not in enumeration._MEMO.get("pairs", {})


@pytest.mark.parametrize("cls", [
    by_vertices_and_leaves(10, 5),
    by_outdegree_sequence((2, 2, 2, 1, 1)),
    series_reduced(7),
], ids=lambda cls: cls.kind)
def test_memoised_rho_is_the_spectral_radius(cls, monkeypatch):
    solved = []
    solve = enumeration.spectral_radius

    def counting_solve(tree):
        solved.append(tree)
        return solve(tree)

    monkeypatch.setattr(enumeration, "spectral_radius", counting_solve)
    # an unbounded tie window prunes nothing, so every tree is scored
    monkeypatch.setattr(enumeration, "TIE_WINDOW", math.inf)
    scored = enumeration._contenders(cls)
    encs = list(enumeration._class_encodings(cls))
    assert [enc for _, enc in scored] == encs
    for value, enc in scored:
        assert value == spectral_radius(encoding_to_tree(enc)).rho
    # one solve per distinct branch below a root
    assert len(solved) == len({branch for enc in encs for branch in enc})


def test_extremal_search_confirms_broom():
    report = verify_extremal(by_vertices_and_leaves(7, 3), broom(3, 3))
    assert report.holds
    assert report.rho_max == pytest.approx(10.0, abs=1e-9)
    assert report.rho_claimed == pytest.approx(10.0, abs=1e-9)
    assert canonical_encoding(report.argmax) == canonical_encoding(broom(3, 3))


def test_extremal_search_rejects_false_claim():
    report = verify_extremal(by_vertex_count(4), star(3))
    assert not report.holds
    assert report.rho_claimed == pytest.approx(1.0, abs=1e-9)
    assert report.rho_max == pytest.approx(3.0, abs=1e-9)
    # the path and the depth-2 cherry tie at 3; encoding order breaks it
    assert canonical_encoding(report.argmax) == (((), ()),)
    assert len(report.ties) == 2
    assert rho(report.ties[0]) == pytest.approx(3.0, abs=1e-9)


def test_extremal_search_needs_nonempty_class():
    with pytest.raises(InvalidParameter):
        verify_extremal(dary_by_leaves(3, 2), star(2))


def test_class_cap():
    with pytest.raises(ClassTooLarge):
        class_size(by_vertex_count(30))
    with pytest.raises(ClassTooLarge):
        list(enumerate_class(by_vertex_count(30)))
    # the class is counted before it is built, so no pool is left behind
    before = _pools()
    with pytest.raises(ClassTooLarge):
        class_size(by_vertex_count(40))
    with pytest.raises(ClassTooLarge):
        next(enumerate_class(by_vertex_count(40)))
    assert _pools() == before


def test_equal_classes_are_counted_once(monkeypatch):
    calls = []
    for name in ("series-reduced", "vertices"):
        # the row's fifth entry gives the class keys of its params
        row = enumeration._CLASSES[name]
        keys = row[4]
        monkeypatch.setitem(enumeration._CLASSES, name, (
            *row[:4], lambda *params, keys=keys:
            calls.append(params) or keys(*params), *row[5:]))
    enumeration._counted.cache_clear()
    first, second = series_reduced(6), series_reduced(6)
    assert first == second and first is not second
    size = class_size(first)
    assert len(list(enumerate_class(second))) == size == class_size(second)
    verify_extremal(second, broom(0, 6))
    assert calls == [(6,)]
    # a class past the cap is not kept: each call counts it again
    for _ in range(2):
        with pytest.raises(ClassTooLarge):
            class_size(by_vertex_count(30))
    assert calls == [(6,), (30,), (30,)]


def test_verify_claim_refuses_an_empty_class_and_an_unmade_claim():
    assert verify_claim(by_vertices_and_leaves(7, 3), "broom").holds
    # d - 1 does not divide n - 1, so no tree and no greedy claim exist
    with pytest.raises(InvalidParameter, match="is empty"):
        verify_claim(dary_by_leaves(3, 8), "greedy")
    with pytest.raises(InvalidParameter, match="no broom claim"):
        verify_claim(by_vertex_count(4), "broom")
    with pytest.raises(InvalidParameter, match="unknown tree class kind"):
        verify_claim(enumeration.TreeClass("bogus", (1,)), "broom")


@pytest.mark.parametrize("kind, params, says", [
    ("series-reduced", (1, 2), "1 param(s), not 2"),
    ("by-vertex-count", (), "1 param(s), not 0"),
    ("by-vertices-and-leaves", (7,), "2 param(s), not 1"),
    ("dary-by-leaves", (2, 3, 4), "2 param(s), not 3"),
])
def test_a_class_with_the_wrong_number_of_params_is_refused(kind, params, says):
    cls = enumeration.TreeClass(kind, params)
    for ask in (class_size, lambda c: next(enumerate_class(c))):
        with pytest.raises(InvalidParameter,
                           match=re.escape(f"a {kind} class takes {says}")):
            ask(cls)
    # the outdegree class takes any number of params
    assert class_size(enumeration.TreeClass("by-outdegree-sequence",
                                            (2, 0, 0))) == 1


def test_random_tree_is_seeded_and_preorder():
    a = random_tree(12, seeded_rng(5)).parent_list()
    b = random_tree(12, seeded_rng(5)).parent_list()
    assert a == b
    assert len(a) == 12
    assert all(a[v] < v for v in range(1, 12))
    with pytest.raises(InvalidParameter):
        random_tree(0, seeded_rng(0))
    rng = seeded_rng(7)
    shapes = {canonical_encoding(random_tree(6, rng)) for _ in range(50)}
    assert len(shapes) > 3


# random_tree(n, random.Random(seed)).parent, as the attachment draws
# renumbered into preorder gave them when first recorded
_RANDOM_TREES = [
    (1, 0, (None,)),
    (2, 1, (None, 0)),
    (5, 2, (None, 0, 0, 2, 0)),
    (8, 3, (None, 0, 1, 2, 3, 3, 0, 0)),
    (12, 4, (None, 0, 1, 1, 3, 1, 5, 0, 7, 7, 0, 0)),
    (17, 5, (None, 0, 1, 2, 3, 4, 5, 4, 3, 3, 2, 1, 11, 1, 0, 0, 15)),
    (25, 6, (None, 0, 1, 1, 3, 3, 5, 1, 7, 8, 9, 0, 11, 12, 0, 14, 15, 16,
             17, 17, 15, 20, 14, 14, 0)),
    (40, 7, (None, 0, 1, 2, 2, 2, 1, 6, 7, 7, 9, 1, 1, 0, 13, 13, 15, 15,
             15, 15, 15, 13, 21, 0, 23, 24, 25, 24, 0, 28, 29, 29, 0, 32, 33,
             32, 0, 36, 0, 38)),
    (9, 8, (None, 0, 1, 1, 1, 1, 5, 1, 0)),
    (30, 9, (None, 0, 1, 1, 3, 1, 5, 1, 7, 7, 9, 10, 9, 12, 12, 7, 15, 7, 17,
             7, 7, 1, 21, 1, 23, 24, 1, 0, 27, 27)),
]


@pytest.mark.parametrize("n, seed, parents", _RANDOM_TREES)
def test_random_tree_is_pinned(n, seed, parents):
    assert random_tree(n, random.Random(seed)).parent == parents


def test_random_tree_renumbers_the_draws_into_preorder():
    # the same draws, built by the walk and renumbered by subtree
    for seed in range(200):
        n = 1 + seed % 37
        rng = random.Random(seed)
        drawn = [None] + [rng.randrange(v) for v in range(1, n)]
        want = subtree(build_tree(drawn), 0)
        got = random_tree(n, random.Random(seed))
        assert got == want and got.preorder == want.preorder
        assert got.leaf_start == want.leaf_start


def test_deep_encoding_round_trip():
    depth = 10 ** 5
    t = broom(depth, 2)
    back = encoding_to_tree(canonical_encoding(t))
    assert back.parent_list() == t.parent_list()
