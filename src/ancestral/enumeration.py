"""Exhaustive generation of rooted-tree classes and extremality checking.

Trees are generated as canonical encodings: a vertex is the sorted tuple of
its children's encodings, a leaf is the empty tuple.  Two rooted trees are
isomorphic (respecting the root, ignoring children order) exactly when their
encodings are equal, so each class is emitted without duplicates by
construction.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .errors import ClassTooLarge, InvalidParameter
from .spectral import DEFAULT_TOL, spectral_radius
from .tree_core import RootedTree, build_tree, preorder, subtree

DEFAULT_CAP = 10 ** 6

Encoding = tuple


def canonical_encoding(tree: RootedTree) -> Encoding:
    """Sorted-tuple encoding of the tree, built bottom-up without recursion."""
    children = tree.children
    enc: list = [None] * tree.n_vertices
    for v in reversed(preorder(tree)):
        enc[v] = tuple(sorted(enc[c] for c in children[v]))
    return enc[tree.root]


def encoding_to_tree(enc: Encoding) -> RootedTree:
    """The tree of an encoding, vertices numbered in preorder, built without
    recursion."""
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


def _leaf_count(enc: Encoding) -> int:
    if not enc:
        return 1
    return sum(_leaf_count(c) for c in enc)


def _partitions(m: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of m into positive parts, descending within each tuple."""
    if max_part is None or max_part > m:
        max_part = m
    if m == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _multiset_children(part: tuple[int, ...], pool) -> Iterator[Encoding]:
    """All sorted children tuples whose subtree sizes realize ``part``.

    ``pool(s)`` supplies the candidate encodings of size s.  Groups equal
    part sizes and draws multisets per group, so no deduplication pass is
    needed afterwards.
    """
    groups = sorted(Counter(part).items(), reverse=True)
    pools = []
    for s, count in groups:
        candidates = pool(s)
        if not candidates:
            return
        pools.append(list(itertools.combinations_with_replacement(candidates, count)))
    for combo in itertools.product(*pools):
        yield tuple(sorted(itertools.chain.from_iterable(combo)))


@lru_cache(maxsize=None)
def _by_vertices(n: int) -> tuple[Encoding, ...]:
    if n <= 0:
        return ()
    if n == 1:
        return ((),)
    out: list[Encoding] = []
    for part in _partitions(n - 1):
        out.extend(_multiset_children(part, _by_vertices))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _series_reduced(n: int) -> tuple[Encoding, ...]:
    """Encodings with exactly n leaves and no outdegree-1 vertex."""
    if n <= 0:
        return ()
    if n == 1:
        return ((),)
    out: list[Encoding] = []
    for part in _partitions(n):
        if len(part) < 2:
            continue
        out.extend(_multiset_children(part, _series_reduced))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _dary_by_leaves(d: int, n: int) -> tuple[Encoding, ...]:
    """Encodings with n leaves where every internal vertex has outdegree d."""
    if n <= 0:
        return ()
    if n == 1:
        return ((),)
    if (n - 1) % (d - 1) != 0:
        return ()
    out: list[Encoding] = []
    for part in _partitions(n):
        if len(part) != d:
            continue
        out.extend(_multiset_children(part, lambda s: _dary_by_leaves(d, s)))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class TreeClass:
    """A finite family of rooted trees, given up to isomorphism.

    kind is one of "by-vertex-count", "by-leaf-count",
    "by-vertices-and-leaves", "by-outdegree-sequence", "series-reduced",
    "dary-by-leaves".  ``params`` carries the kind-specific integers; for
    "by-leaf-count" a max_vertices bound is mandatory because the class is
    otherwise infinite (chains of outdegree-1 vertices preserve the leaf
    count).
    """

    kind: str
    params: tuple[int, ...]
    cap: int = DEFAULT_CAP


def by_vertex_count(n: int, cap: int = DEFAULT_CAP) -> TreeClass:
    return TreeClass("by-vertex-count", (n,), cap)


def by_leaf_count(n: int, max_vertices: int, cap: int = DEFAULT_CAP) -> TreeClass:
    return TreeClass("by-leaf-count", (n, max_vertices), cap)


def by_vertices_and_leaves(n_vertices: int, n_leaves: int,
                           cap: int = DEFAULT_CAP) -> TreeClass:
    return TreeClass("by-vertices-and-leaves", (n_vertices, n_leaves), cap)


def by_outdegree_sequence(seq: Iterable[int], cap: int = DEFAULT_CAP) -> TreeClass:
    """Trees whose multiset of outdegrees matches ``seq``.

    Zeros (leaves) may be omitted; the vertex count 1 + sum(seq) pins how
    many there must be.
    """
    nonzero = sorted((s for s in seq if s != 0), reverse=True)
    if any(s < 0 for s in nonzero):
        raise InvalidParameter("outdegrees must be non-negative")
    n_vertices = 1 + sum(nonzero)
    n_leaves = n_vertices - len(nonzero)
    if n_leaves < 0:
        raise InvalidParameter("outdegree sequence is not realizable")
    full = tuple(nonzero) + (0,) * n_leaves
    return TreeClass("by-outdegree-sequence", full, cap)


def series_reduced(n_leaves: int, cap: int = DEFAULT_CAP) -> TreeClass:
    return TreeClass("series-reduced", (n_leaves,), cap)


def dary_by_leaves(d: int, n_leaves: int, cap: int = DEFAULT_CAP) -> TreeClass:
    if d < 2:
        raise InvalidParameter("d must be at least 2")
    return TreeClass("dary-by-leaves", (d, n_leaves), cap)


def _class_encodings(cls: TreeClass) -> Iterator[Encoding]:
    if cls.kind == "by-vertex-count":
        (n,) = cls.params
        yield from _by_vertices(n)
    elif cls.kind == "by-leaf-count":
        n, max_vertices = cls.params
        for size in range(1, max_vertices + 1):
            for enc in _by_vertices(size):
                if _leaf_count(enc) == n:
                    yield enc
    elif cls.kind == "by-vertices-and-leaves":
        n_vertices, n_leaves = cls.params
        for enc in _by_vertices(n_vertices):
            if _leaf_count(enc) == n_leaves:
                yield enc
    elif cls.kind == "by-outdegree-sequence":
        want = tuple(sorted(cls.params, reverse=True))
        n_vertices = 1 + sum(want)

        def outdegrees(enc: Encoding, acc: list[int]) -> None:
            acc.append(len(enc))
            for c in enc:
                outdegrees(c, acc)

        for enc in _by_vertices(n_vertices):
            acc: list[int] = []
            outdegrees(enc, acc)
            if tuple(sorted(acc, reverse=True)) == want:
                yield enc
    elif cls.kind == "series-reduced":
        (n,) = cls.params
        yield from _series_reduced(n)
    elif cls.kind == "dary-by-leaves":
        d, n = cls.params
        yield from _dary_by_leaves(d, n)
    else:
        raise InvalidParameter(f"unknown tree class kind: {cls.kind}")


def enumerate_class(cls: TreeClass) -> Iterator[RootedTree]:
    """Yield one representative per isomorphism class, in encoding order."""
    count = 0
    for enc in _class_encodings(cls):
        count += 1
        if count > cls.cap:
            raise ClassTooLarge(f"{cls.kind}{cls.params} exceeds cap {cls.cap}")
        yield encoding_to_tree(enc)


def class_size(cls: TreeClass) -> int:
    count = 0
    for _ in _class_encodings(cls):
        count += 1
        if count > cls.cap:
            raise ClassTooLarge(f"{cls.kind}{cls.params} exceeds cap {cls.cap}")
    return count


@dataclass(frozen=True)
class ExtremalReport:
    holds: bool
    argmax: RootedTree
    rho_max: float
    rho_claimed: float
    # every tree whose rho is within tol of rho_max, in encoding order
    ties: tuple[RootedTree, ...] = field(repr=False, default=())


def verify_extremal(cls: TreeClass, claimed_max: RootedTree,
                    tol: float = 1e-7, eig_tol: float = DEFAULT_TOL) -> ExtremalReport:
    """Check that claimed_max attains the maximum spectral radius over cls.

    The maximizer need not be unique; ``holds`` only requires the claimed
    tree to reach the maximum within tol, and ``ties`` lists everything
    that does.  The reported argmax is deterministic: exact-float ties are
    broken by canonical encoding order.
    """
    scored: list[tuple[float, Encoding]] = []
    count = 0
    for enc in _class_encodings(cls):
        count += 1
        if count > cls.cap:
            raise ClassTooLarge(f"{cls.kind}{cls.params} exceeds cap {cls.cap}")
        scored.append((spectral_radius(encoding_to_tree(enc), eig_tol).rho, enc))
    if not scored:
        raise InvalidParameter(f"class {cls.kind}{cls.params} is empty")
    rho_max = max(rho for rho, _ in scored)
    # deterministic argmax: encoding-smallest among exact-float ties
    best_enc = min(enc for rho, enc in scored if rho == rho_max)
    rho_claimed = spectral_radius(claimed_max, eig_tol).rho
    ties = tuple(encoding_to_tree(enc)
                 for rho, enc in sorted(scored, key=lambda rec: rec[1])
                 if rho >= rho_max - tol)
    return ExtremalReport(holds=rho_claimed >= rho_max - tol,
                          argmax=encoding_to_tree(best_enc),
                          rho_max=rho_max,
                          rho_claimed=rho_claimed,
                          ties=ties)


def random_tree(n_vertices: int, rng: random.Random) -> RootedTree:
    """Attachment-based random rooted tree, for fuzzing only.

    Each new vertex picks a uniformly random existing parent; the induced
    distribution over isomorphism classes is NOT uniform.  Vertices are
    renumbered in preorder before returning, matching the family generators.
    """
    if n_vertices < 1:
        raise InvalidParameter("need at least one vertex")
    parents: list[Optional[int]] = [None]
    for v in range(1, n_vertices):
        parents.append(rng.randrange(v))
    return subtree(build_tree(parents), 0)
