"""Exhaustive generation of rooted-tree classes and extremality checking.

Trees are generated as canonical encodings: a vertex is the sorted tuple of
its children's encodings, a leaf is the empty tuple.  Two rooted trees are
isomorphic (respecting the root, ignoring children order) exactly when their
encodings are equal, so each class is emitted without duplicates by
construction.

Every class is generated directly, never by filtering a larger one.  A
class is a list of keys of one kind -- the vertex count, the pair
(vertices, leaves), the sorted outdegree multiset, the leaf count of a
series-reduced tree.  A d-ary class is the outdegree class of its profile:
d taken (n - 1) / (d - 1) times, and n zeros.  One table, ``_KINDS``, holds
all of a kind: a step that picks a root's children's keys one at a time,
largest first, the exact count of a key and its key bound.  One
explicit-stack driver, ``_descending``, turns a step into every split of a
root's remainder, with no recursion; ``_forests`` walks each remainder's
splits once and keeps their children tuples, drawn from the pools of their
keys, and ``_walk`` builds a key's sorted pool from the forests of its
roots' remainders.  A key is counted apart, by Otter's
Euler transform (``counting``), which walks no part.  A class counts itself
once, and is refused at the first sub-key whose count passes
``DEFAULT_CAP``, before any pool is built.  Pools are sorted, so a class
comes out in the order a filter over the sorted vertex-count pools would
give.

One table, ``_CLASSES``, keyed by ``--class`` name, holds each kind of
class: its constructor, its vertex bound, its keys and the paper's
extremality claims about it, the tree claimed to have the largest rho: the
broom for n vertices and l leaves, the greedy caterpillar for an outdegree
sequence and so for d-ary trees, and the binary caterpillar among
series-reduced trees.  ``verify_claim`` checks one, for ``search`` and
``verify-all`` alike.

The extremality search reads the spectral radius off the block structure:
C(T) is the direct sum of the blocks C(B_i) + J over the branches B_i below
the root, so rho(T) is the largest rho(C(B_i) + J).  It bounds before it
builds: a branch's largest row sum, its row bound, bounds its rho from
above and is a recurrence on encodings, and a key alone bounds the row
bounds of its pool, exactly.  So ``_Branches`` generates, best first, only
the branches of a key whose row bound reaches a threshold, from the same
kind of call on one child key, its lead, and the forest of the rest.  The
leads come from the step with no top (``_leads``), so only a lead whose key
bound reaches the threshold has the splits of its rest walked.  Branches are
solved in descending bound order only while a bound can still reach the
maximum within the tie window, each as the one branch of a tree by
``spectral_radius``, and only the trees that hold a branch within the window
are built.  No matrix is built, and the result is that of solving every
branch of every tree.  The tie window is the constant ``TIE_WINDOW``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import counting
from .errors import ClassTooLarge, InvalidParameter
from .spectral import spectral_radius
from .tree_core import (
    FAMILY_CAP,
    RootedTree,
    binary_caterpillar,
    broom,
    build_tree,
    greedy_caterpillar,
)

DEFAULT_CAP = 10 ** 6
# a tree is extremal when its rho is within this window of the class maximum
TIE_WINDOW = 1e-7

Encoding = tuple


def canonical_encoding(tree: RootedTree) -> Encoding:
    """Sorted-tuple encoding of the tree, built bottom-up without recursion."""
    children = tree.children
    enc: list = [None] * tree.n_vertices
    for v in reversed(tree.preorder):
        enc[v] = tuple(sorted(enc[c] for c in children[v]))
    return enc[tree.root]


def encoding_to_tree(enc: Encoding) -> RootedTree:
    """The tree of an encoding, vertices numbered in preorder with children
    in encoding order.  Built with an explicit stack, without recursion."""
    parents: list[Optional[int]] = []
    stack = [enc]
    above: list[Optional[int]] = [None]  # parent of each node on the stack
    while stack:
        node = stack.pop()
        idx = len(parents)
        parents.append(above.pop())
        if node:
            stack.extend(node[::-1])
            above.extend([idx] * len(node))
    return build_tree(parents)


def _multiset_children(part: tuple, pool) -> Iterator[Encoding]:
    """All sorted children tuples whose subtree keys realize ``part``.

    ``pool(key)`` supplies the candidate encodings of one key, such as a
    size.  Groups equal keys and draws multisets per group, so no
    deduplication pass is needed afterwards.
    """
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(pool(s), count)
            for s, count in Counter(part).items())):
        yield tuple(sorted(itertools.chain.from_iterable(combo)))


def _descending(rem, step) -> Iterator[tuple]:
    """Every descending tuple of parts that uses up ``rem`` (None gives the
    empty tuple).  ``step(rem, top)`` yields each part that can come next,
    at most ``top``, with the remainder after it, None once nothing
    remains.  An explicit stack keeps the suspended steps, one per part
    chosen so far, so k parts cost O(k) and no recursion."""
    if rem is None:
        yield ()
        return
    chosen: list = []
    stack: list = []
    steps = step(rem, None)
    while True:
        for part, rest in steps:
            if rest is None:
                yield (*chosen, part)
            else:
                stack.append(steps)
                chosen.append(part)
                steps = step(rest, part)
                break
        else:
            if not stack:
                return
            steps = stack.pop()
            chosen.pop()


def _vertex_step(m: int, top: Optional[int]):
    """The next child's vertex count, out of m still to place."""
    for size in range(m if top is None else min(m, top), 0, -1):
        yield size, m - size or None


def _pair_step(rem: tuple[int, int], top: Optional[tuple[int, int]]):
    """The next child's (vertices, leaves) pair, out of ``rem``."""
    n, leaves = rem
    top = top or rem
    # one leaf left fits one child only, of all n vertices
    for size in range(min(n, top[0]), 0 if leaves > 1 else n - 1, -1):
        # a tree of size > 1 has between 1 and size - 1 leaves, and the
        # children after it between 1 and their size each
        most = min(leaves - (size < n), size - 1 or 1)
        if size == top[0]:
            most = min(most, top[1])
        for k in range(most, max(1, leaves - n + size) - 1, -1):
            yield (size, k), (n - size, leaves - k) if size < n else None


def _outdegree_roots(degrees: tuple[int, ...]) -> list:
    """The root takes one outdegree k, and its k children share the rest:
    (distinct nonzero outdegrees, count of each, leaves, children left)."""
    if len(degrees) != 1 + sum(degrees):
        return []
    counts = Counter(degrees)
    zeros = counts.pop(0, 0)
    values = tuple(sorted(counts, reverse=True))
    return [(values, tuple(counts[v] - (v == k) for v in values), zeros, k)
            for k in values] or [None]


def _outdegree_step(rem: tuple, top: Optional[tuple[int, ...]]):
    """The next child's descending outdegree multiset (m entries summing
    to m - 1); the last child takes all that is left."""
    values, counts, zeros, left = rem
    for picks in ([counts] if left == 1 else itertools.product(
            *(range(c + 1) for c in counts))):
        # the part's leaves are fixed by its other entries
        z = 1 + sum(map(mul, values, picks)) - sum(picks)
        part = tuple(itertools.chain.from_iterable(
            map(itertools.repeat, values, picks))) + (0,) * z
        if top is None or part <= top:
            yield part, None if left == 1 else (
                values, tuple(map(sub, counts, picks)), zeros - z, left - 1)


def _reduced_roots(n: int) -> list:
    """n leaves, no outdegree-1 vertex: a series-reduced tree, whose root
    has at least two children."""
    return [None] if n == 1 else [(n, 2)] if n > 1 else []


def _reduced_step(rem: tuple[int, int], top: Optional[int]):
    """The next child's leaf count s, out of n leaves and at least ``left``
    children to go."""
    n, left = rem
    for s in range(min(n - left + 1, top or n), 0, -1):
        yield s, None if s == n else (n - s, max(left - 1, 1))


def _spine_bound(outdegrees: Iterable[int]) -> int:
    """The row bound of the caterpillar whose spine takes these nonzero
    outdegrees in ascending order from its root."""
    return 1 + sum(1 + (d - 1) * i for i, d in enumerate(sorted(outdegrees), 1))


class _Kind(NamedTuple):
    """Everything about one kind of key.

    ``roots(key)`` gives the remainder of each way a root can start (None
    for a leaf) and ``step`` picks its children's keys from a remainder,
    largest first.  ``count(key, cap)`` is the size of the key's pool, or
    cap + 1 once it passes cap, by Otter's Euler transform (``counting``),
    with no tree built and no part walked.  ``bound(key)`` is the largest
    row bound in the key's pool (0 for an empty pool) and the most leaves an
    encoding of the key has.
    """

    roots: Callable
    step: Callable
    count: Callable
    bound: Callable


# The key bounds: a vertex has k = 1 + the sum of d - 1 over the internal
# vertices of its subtree, d their outdegree, leaves below it.  So a
# root-to-leaf path through p of the m internal vertices has row sum
# 1 + p + the sum of (d - 1) c, c the number of those p at or above each
# internal vertex; by rearrangement that is at most c = 1, ..., m against
# the d - 1 in ascending order.  This is the row bound of the caterpillar
# whose spine takes the outdegrees in ascending order from the root, a tree
# of every nonempty pool: the broom, l(n - l) + 1, for n vertices and l
# leaves, for a vertex count the broom of the best l, n // 2, and for n
# leaves of a series-reduced tree the binary caterpillar, n(n + 1) / 2.
_KINDS = {
    "vertices": _Kind(
        lambda n: [n - 1 or None] if n > 0 else [], _vertex_step,
        counting.count_vertices,
        lambda n: ((n // 2) * ((n + 1) // 2) + 1 if n > 1 else n, max(n - 1, 1))),
    "pairs": _Kind(
        lambda key: [None] if key == (1, 1) else
        [(key[0] - 1, key[1])] if key[0] > 1 else [], _pair_step,
        counting.count_pairs,
        lambda key: (key[1] * (key[0] - key[1]) + 1 if 0 < key[1] < key[0]
                     else int(key == (1, 1)), key[1])),
    "outdegrees": _Kind(
        _outdegree_roots, _outdegree_step, counting.count_outdegrees,
        lambda key: (_spine_bound(d for d in key if d)
                     if len(key) == 1 + sum(key) else 0, key.count(0))),
    # the leaf count of a series-reduced tree
    "reduced": _Kind(_reduced_roots, _reduced_step, counting.count_reduced,
                     lambda n: (n * (n + 1) // 2, n)),
}


def _parts(kind: str, key) -> Iterator[tuple]:
    """Each split of ``key`` among a root's children: their keys, descending."""
    rule = _KINDS[kind]
    for rem in rule.roots(key):
        yield from _descending(rem, rule.step)


def outdegree_sequences(n_vertices: int) -> Iterator[tuple[int, ...]]:
    """The descending nonzero outdegree multisets of n_vertices-vertex trees."""
    return _parts("vertices", n_vertices)


# (kind, remainder) -> the sorted children tuples of its splits
_FORESTS: dict[tuple, tuple] = {}


def _forests(kind: str, rem) -> tuple:
    """The sorted children tuples of every split of a root's remainder
    among its children, drawn from the pools of their keys: each split is
    walked once, and its tuples kept."""
    got = _FORESTS.get((kind, rem))
    if got is None:
        pool = functools.partial(_walk, kind)
        got = _FORESTS[kind, rem] = tuple(sorted(itertools.chain.from_iterable(
            _multiset_children(part, pool)
            for part in _descending(rem, _KINDS[kind].step))))
    return got


@functools.lru_cache(maxsize=None)
def _leads(kind: str, key) -> tuple:
    """(lead, its key bound, rest) for each child key a root of ``key``
    can hold and the remainder after it, from the step with no top.  Each
    part of ``_parts``, with each distinct child in it as the lead, is one
    lead plus one split of its rest, and no split is walked to find them."""
    rule = _KINDS[kind]
    return tuple((lead, rule.bound(lead)[0], rest) for rem in rule.roots(key)
                 if rem is not None for lead, rest in rule.step(rem, None))


# kind -> {key: sorted pool}
_MEMO: dict[str, dict] = {}


def _walk(kind: str, key) -> tuple:
    """The sorted pool of one key of ``kind``, computed once into ``_MEMO``:
    the ``_forests`` of its roots' remainders.  A key waits on an explicit
    stack until the pools of its leads, every child key of its parts, are
    in, so a deep key needs no recursion."""
    memo = _MEMO.setdefault(kind, {})
    stack = [key]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        missing = [lead for lead, _, _ in _leads(kind, top) if lead not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        forests = [_forests(kind, rem) for rem in _KINDS[kind].roots(top)]
        memo[top] = forests[0] if len(forests) == 1 else tuple(
            sorted(itertools.chain.from_iterable(forests)))
    return memo[key]


class _Branches:
    """The branch encodings one extremality search generates: their row
    bounds and, per key and threshold, those of a key that reach it.  One
    per search, so all it keeps alive goes with the search; the pools and
    forests it draws on stay in ``_MEMO`` and ``_FORESTS``."""

    def __init__(self) -> None:
        # id(enc) -> (row bound, leaves, enc).  Pools share their
        # sub-encodings, so a lookup by id costs O(1) where one by value
        # costs O(size); the entry keeps enc alive, so its id is its own.
        self._rb: dict[int, tuple[int, int, Encoding]] = {}
        # (kind, key, theta) -> the sorted encodings of key with rb >= theta
        self._above: dict[tuple, tuple] = {}

    def rb(self, enc: Encoding) -> tuple[int, int]:
        """The row bound of a branch encoding and its leaf count.

        rb(leaf) = 1 and rb(e) = leaves(e) + the largest rb(c) over the
        children c of e: the largest row sum of C(B) + J, B the branch of e,
        which ``tree_core.row_sums`` gives at B's leaves in any tree that
        holds B below its root.  Children come first, on an explicit stack,
        so a deep encoding needs no recursion.
        """
        memo = self._rb
        stack = [enc]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            missing = [c for c in node if id(c) not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if node:
                below = [memo[id(c)] for c in node]
                leaves = sum(b[1] for b in below)
                memo[id(node)] = (leaves + max(b[0] for b in below), leaves, node)
            else:
                memo[id(node)] = (1, 1, node)
        return memo[id(enc)][:2]

    def above(self, kind: str, key, theta: int) -> tuple:
        """The sorted encodings of ``key`` whose row bound is at least theta.

        The full pool when theta <= 1, nothing when the key bound is below
        theta.  Otherwise an encoding of l <= most leaves reaches theta only
        through a child of row bound at least theta - most.  So for each lead
        whose key bound reaches that, the child comes from this very call on
        the lead at theta - most and its siblings from the forest of the rest;
        the results are merged and filtered by their exact row bound.  Each
        (kind, key, theta) is computed once, with the leads' calls on an
        explicit stack, so a deep key needs no recursion.
        """
        if theta <= 1:
            return _walk(kind, key)
        if _KINDS[kind].bound(key)[0] < theta:
            return ()
        memo = self._above
        stack = [(key, theta)]
        while stack:
            top, at = stack[-1]
            if (kind, top, at) in memo:
                stack.pop()
                continue
            below = at - _KINDS[kind].bound(top)[1]
            if below <= 1:
                found = _walk(kind, top)
            else:
                leads = [(lead, rest) for lead, bound, rest in _leads(kind, top)
                         if bound >= below]
                missing = [(lead, below) for lead, _ in leads
                           if (kind, lead, below) not in memo]
                if missing:
                    stack.extend(missing)
                    continue
                found = sorted(
                    tuple(sorted((first, *more))) for lead, rest in leads
                    for first in memo[kind, lead, below]
                    for more in _forests(kind, rest))
            stack.pop()
            memo[kind, top, at] = tuple(enc for enc, _ in itertools.groupby(found)
                                        if self.rb(enc)[0] >= at)
        return memo[kind, key, theta]


class TreeClass(NamedTuple):
    """A finite family of rooted trees, given up to isomorphism.

    kind is one of "by-vertex-count", "by-leaf-count",
    "by-vertices-and-leaves", "by-outdegree-sequence", "series-reduced",
    "dary-by-leaves".  ``params`` carries the kind-specific integers; for
    "by-leaf-count" a max_vertices bound is mandatory because the class is
    otherwise infinite (chains of outdegree-1 vertices preserve the leaf
    count).  A "dary-by-leaves" class (d, n) is generated as the
    outdegree class of d taken (n - 1) / (d - 1) times and n zeros.
    """

    kind: str
    params: tuple[int, ...]


@functools.lru_cache(maxsize=256, typed=True)
def _counted(kind: str, *params: int) -> tuple[tuple, int]:
    """The (kind, key) pairs whose pools, chained, are the class of this
    kind and params, and its size, without building any pool; kept for the
    256 classes last asked about, by each param's type too (True is no 1).
    Raises ClassTooLarge, which is not kept, uncounted when a tree can pass
    ``FAMILY_CAP`` vertices, and when the size passes ``DEFAULT_CAP``."""
    _, arity, _, most_vertices, class_keys, _ = _class_row(kind)
    if arity is not None and len(params) != arity:
        raise InvalidParameter(f"a {kind} class takes {arity} param(s), "
                               f"not {len(params)}")
    for p in params:
        if type(p) is not int:  # a bool is an int, but no count
            raise InvalidParameter(f"a {kind} class takes int params, "
                                   f"not {type(p).__name__}")
    most = most_vertices(*params)
    if most > FAMILY_CAP:
        raise ClassTooLarge(f"{kind} class: trees of up to {most} vertices, "
                            f"past the cap {FAMILY_CAP}")
    keys = tuple(class_keys(*params))
    size = 0
    for pool_kind, key in keys:
        size += _KINDS[pool_kind].count(key, DEFAULT_CAP)
        if size > DEFAULT_CAP:
            # name a long class by its first params, so the line stays short
            shown = (f"{params}" if len(params) <= 8 else
                     f"({', '.join(map(str, params[:8]))}, … {len(params)} params)")
            raise ClassTooLarge(f"{kind}{shown} exceeds cap {DEFAULT_CAP}")
    return keys, size


def by_vertex_count(n: int) -> TreeClass:
    return TreeClass("by-vertex-count", (n,))


def by_leaf_count(n: int, max_vertices: int) -> TreeClass:
    return TreeClass("by-leaf-count", (n, max_vertices))


def by_vertices_and_leaves(n_vertices: int, n_leaves: int) -> TreeClass:
    return TreeClass("by-vertices-and-leaves", (n_vertices, n_leaves))


def by_outdegree_sequence(seq: Iterable[int]) -> TreeClass:
    """Trees whose multiset of outdegrees matches ``seq``.

    Zeros (leaves) may be omitted; the vertex count 1 + sum(seq) pins how
    many there must be.
    """
    nonzero = sorted((s for s in seq if s != 0), reverse=True)
    if any(s < 0 for s in nonzero):
        raise InvalidParameter("outdegrees must be non-negative")
    # 1 + sum(s - 1) >= 1 leaves, as every s is at least 1
    n_leaves = 1 + sum(nonzero) - len(nonzero)
    full = tuple(nonzero) + (0,) * n_leaves
    return TreeClass("by-outdegree-sequence", full)


def series_reduced(n_leaves: int) -> TreeClass:
    return TreeClass("series-reduced", (n_leaves,))


def dary_by_leaves(d: int, n_leaves: int) -> TreeClass:
    """Trees with n_leaves leaves whose internal vertices all have d
    children: the outdegree class of d taken (n_leaves - 1) / (d - 1)
    times, empty unless d - 1 divides n_leaves - 1."""
    if d < 2:
        raise InvalidParameter("d must be at least 2")
    return TreeClass("dary-by-leaves", (d, n_leaves))


def _greedy(outdegrees) -> RootedTree:
    """The greedy caterpillar of an outdegree profile, or the single vertex,
    the one tree of a class without a non-zero outdegree."""
    return (greedy_caterpillar(outdegrees) if any(outdegrees)
            else build_tree([None]))


# Each --class name, one row per kind of class: its constructor and how
# many integers it takes (None: any number, as one list), which
# ``tree_core.parse_spec`` reads; its TreeClass kind; the most vertices a
# tree of the class can have; the (kind, key) pairs whose pools, chained,
# are the class; and, for each --check that searches it, the tree the paper
# claims has the largest rho.  All but the constructor read the class
# params, the claims only those of a class that is not empty.  The rows
# that some --check searches come first, in the order search names them.
_CLASSES = {
    "outdegrees": (
        by_outdegree_sequence, None, "by-outdegree-sequence",
        lambda *degrees: len(degrees),
        lambda *degrees: [("outdegrees", tuple(sorted(degrees, reverse=True)))],
        {"greedy": lambda *degrees: _greedy(degrees)}),
    # the outdegree class of d taken (n - 1) / (d - 1) times, and n zeros
    "dary": (
        dary_by_leaves, 2, "dary-by-leaves",
        lambda d, n: n + (n - 1) // (d - 1),
        lambda d, n: [("outdegrees", (d,) * ((n - 1) // (d - 1)) + (0,) * n)]
        if n > 0 and (n - 1) % (d - 1) == 0 else [],
        {"greedy": lambda d, n: _greedy([d] * ((n - 1) // (d - 1)))}),
    "vertices-leaves": (
        by_vertices_and_leaves, 2, "by-vertices-and-leaves",
        lambda n, leaves: n,
        lambda n, leaves: [("pairs", (n, leaves))],
        # the class of one vertex holds only the single vertex
        {"broom": lambda n, leaves: broom(n - leaves - 1, leaves) if n > 1
         else build_tree([None])}),
    "series-reduced": (
        series_reduced, 1, "series-reduced",
        lambda n: 2 * n - 1,  # at most n - 1 inner vertices
        lambda n: [("reduced", n)],
        {"binary-caterpillar": binary_caterpillar}),
    "vertices": (
        by_vertex_count, 1, "by-vertex-count",
        lambda n: n,
        lambda n: [("vertices", n)], {}),
    "leaves": (
        by_leaf_count, 2, "by-leaf-count",
        lambda leaves, max_vertices: max_vertices,
        lambda leaves, max_vertices: [
            ("pairs", (size, leaves)) for size in range(1, max_vertices + 1)],
        {}),
}


def _class_row(kind: str) -> tuple:
    """The ``_CLASSES`` row of a TreeClass kind."""
    for row in _CLASSES.values():
        if row[2] == kind:
            return row
    raise InvalidParameter(f"unknown tree class kind: {kind}")


def _class_encodings(cls: TreeClass) -> Iterator[Encoding]:
    """The encodings of cls in class order.  The class is counted first, so
    ClassTooLarge comes before any pool is built.

    Class order is ascending encoding order, except for "by-leaf-count":
    that class comes out one vertex count at a time, smallest first, each
    count ascending, and so is not sorted as a whole."""
    keys, _ = _counted(cls.kind, *cls.params)
    return itertools.chain.from_iterable(_walk(kind, key) for kind, key in keys)


def enumerate_class(cls: TreeClass) -> Iterator[RootedTree]:
    """Yield one representative per isomorphism class, in class order (see
    ``_class_encodings``)."""
    for enc in _class_encodings(cls):
        yield encoding_to_tree(enc)


def class_size(cls: TreeClass) -> int:
    """The number of trees in cls, counted by the Euler transform without
    enumerating them; raises ClassTooLarge when a tree can pass
    ``FAMILY_CAP`` vertices, or the count ``DEFAULT_CAP``."""
    return _counted(cls.kind, *cls.params)[1]


class ExtremalReport(NamedTuple):
    holds: bool
    argmax: RootedTree
    rho_max: float
    rho_claimed: float
    # every tree whose rho is within TIE_WINDOW of rho_max, in encoding order
    ties: tuple[RootedTree, ...] = ()


def _contenders(cls: TreeClass) -> list[tuple[float, Encoding]]:
    """(rho, encoding) for every tree of cls within w = ``TIE_WINDOW`` of the
    class maximum, in class order; no other tree is built.

    rho(T) is the largest rho(C(B) + J) over the branches B below the root,
    and 0 for the single vertex.  The branches are those of the class keys'
    leads, drawn best first by ``_Branches.above``.  The largest key bound
    among the leads is attained, so the first threshold, that bound, already
    yields a branch.  Branches are solved by
    ``spectral_radius`` of the tree whose root has the branch as its one
    child, with its residual check on every branch solved numerically, in
    descending row bound order until a bound falls below best - w, best the
    largest rho solved so far.  Then the threshold drops to ceil(best - w),
    the branches between the two thresholds are solved the same way, and so
    on until the
    threshold stops falling.  Every branch left unsolved has a row bound,
    and so a rho, below best - w <= max - w.  A tree is therefore within
    w of the maximum exactly when it holds a solved branch that is.  Those
    trees are built from such a branch and the forest of its lead's rest,
    and each is scored by its solved branches.  The branch's arrays in the
    one-branch tree are those ``spectral_radius`` reads for the same branch
    of ``encoding_to_tree(enc)``, so each rho is the very float it returns.
    """
    keys, _ = _counted(cls.kind, *cls.params)
    w = TIE_WINDOW
    branches = _Branches()
    # each class key's kind, whether it holds the single vertex, and its
    # leads; some tree holds each lead, so each lead's key bound is attained
    roots = [(kind, None in _KINDS[kind].roots(key), _leads(kind, key))
             for kind, key in keys]
    # each (kind, lead) of those keys and its solved branches
    solved: dict[tuple, list] = {(kind, lead): [] for kind, _, leads in roots
                                 for lead, _, _ in leads}
    rho_of: dict[Encoding, float] = {}
    best, top = -math.inf, math.inf
    theta = max((bound for _, _, leads in roots for _, bound, _ in leads),
                default=1)
    while theta < top:
        # the branches with theta <= rb < top, best first
        fresh = []
        for slot in solved:
            for branch in branches.above(*slot, theta):
                bound = branches.rb(branch)[0]
                if bound < top:
                    fresh.append((bound, branch, slot))
        fresh.sort(key=itemgetter(0), reverse=True)
        for bound, branch, slot in fresh:
            if bound < best - w:
                break
            rho_of[branch] = value = spectral_radius(
                encoding_to_tree((branch,))).rho
            solved[slot].append(branch)
            best = max(best, value)
        top, theta = theta, math.ceil(best - w) if best - w > 1 else 1
    rho_max = max(best, 0.0) if any(leaf for _, leaf, _ in roots) else best
    scored = []
    for kind, leaf, leads in roots:
        trees = [()] if leaf and 0.0 >= rho_max - w else []
        for lead, _, rest in leads:
            trees.extend(tuple(sorted((first, *more)))
                         for first in solved[kind, lead]
                         if rho_of[first] >= rho_max - w
                         for more in _forests(kind, rest))
        trees.sort()
        scored.extend((max((rho_of[b] for b in enc if b in rho_of), default=0.0), enc)
                      for enc, _ in itertools.groupby(trees))
    return scored


def verify_extremal(cls: TreeClass, claimed_max: RootedTree) -> ExtremalReport:
    """Check that claimed_max attains the maximum spectral radius over cls.

    The maximizer need not be unique; ``holds`` only requires the claimed
    tree to reach the maximum within ``TIE_WINDOW``, and ``ties`` lists
    everything that does.  The reported argmax is deterministic:
    exact-float ties are broken by canonical encoding order.

    The class is counted against ``DEFAULT_CAP`` first.  Then only the branches
    whose row bound can reach the maximum within the window are generated
    and solved, and only the trees within it are built (see
    ``_contenders``), so the residual check of ``spectral_radius`` runs on
    those branches alone, and of them on every branch solved numerically.
    """
    scored = _contenders(cls)
    if not scored:
        raise InvalidParameter(f"class {cls.kind}{cls.params} is empty")
    rho_max = max(rho for rho, _ in scored)
    # deterministic argmax: encoding-smallest among exact-float ties
    best_enc = min(enc for rho, enc in scored if rho == rho_max)
    rho_claimed = spectral_radius(claimed_max).rho
    cut = rho_max - TIE_WINDOW
    ties = tuple(encoding_to_tree(enc)
                 for rho, enc in sorted(scored, key=lambda rec: rec[1])
                 if rho >= cut)
    return ExtremalReport(holds=rho_claimed >= cut,
                          argmax=encoding_to_tree(best_enc),
                          rho_max=rho_max,
                          rho_claimed=rho_claimed,
                          ties=ties)


def verify_claim(cls: TreeClass, check: str) -> ExtremalReport:
    """``verify_extremal`` of cls and the tree that the paper's claim
    ``check``, one of the claims of cls's ``_CLASSES`` row, names for its
    params.  The class is counted first, as the params of an empty class
    may admit no claimed tree: it is refused as empty."""
    claims = _class_row(cls.kind)[-1]
    if check not in claims:
        raise InvalidParameter(f"no {check} claim about {cls.kind} classes")
    if class_size(cls) == 0:
        raise InvalidParameter(f"class {cls.kind}{cls.params} is empty")
    return verify_extremal(cls, claims[check](*cls.params))


def random_tree(n_vertices: int, rng: random.Random) -> RootedTree:
    """Attachment-based random rooted tree, for fuzzing only.

    Each new vertex picks a uniformly random existing parent; the induced
    distribution over isomorphism classes is NOT uniform.  Vertices are
    renumbered in preorder before returning, matching the family generators.
    """
    if n_vertices < 1:
        raise InvalidParameter("need at least one vertex")
    drawn: list[Optional[int]] = [None]
    kids: list[list[int]] = [[] for _ in range(n_vertices)]
    for v in range(1, n_vertices):
        p = rng.randrange(v)
        drawn.append(p)
        kids[p].append(v)
    # one depth-first pass renumbers into preorder, children by index
    number = [0] * n_vertices
    parents: list[Optional[int]] = [None]
    stack = kids[0][::-1]
    while stack:
        v = stack.pop()
        number[v] = len(parents)
        parents.append(number[drawn[v]])
        stack.extend(reversed(kids[v]))
    return build_tree(parents)
