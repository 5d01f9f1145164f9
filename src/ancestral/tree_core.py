"""Rooted-tree data model, structural queries, and deterministic family generators.

Vertices are dense 0-based indices in an arena.  A tree is immutable after
construction; every operation below is a pure function.  The canonical row and
column order for all leaf-indexed matrices is ``leaf_order``.

``build_tree`` makes the one depth-first walk over a tree and keeps its
preorder and the preorder leaf range below each vertex on the tree; every
other layer reads those arrays instead of walking the tree again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    CycleDetected,
    IndexOutOfRange,
    InvalidParameter,
    MultipleRoots,
)


@dataclass(frozen=True)
class RootedTree:
    """Arena of vertices with parent/children structure and a fixed leaf order.

    Attributes
    ----------
    parent : tuple of Optional[int]
        parent[v] is the parent of v, or None for the root.
    children : tuple of tuple of int
        children[v] lists the children of v in stored order.
    root : int
        index of the unique vertex without a parent.
    leaf_order : tuple of int
        every childless vertex exactly once; row/column order for matrices.
    level : tuple of int
        level[v] is the distance from the root to v.
    preorder : tuple of int
        every vertex once, parents before children, children in stored
        order.  The leaves below any vertex are contiguous in it.
    leaf_start, leaf_stop : tuple of int
        the leaves below v are the preorder leaves at positions
        leaf_start[v] up to, but excluding, leaf_stop[v]; their number is
        leaf_stop[v] - leaf_start[v].

    The last three are derived from ``children`` and take no part in
    equality or repr.
    """

    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    root: int
    leaf_order: tuple[int, ...]
    level: tuple[int, ...]
    preorder: tuple[int, ...] = field(repr=False, compare=False)
    leaf_start: tuple[int, ...] = field(repr=False, compare=False)
    leaf_stop: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_order)

    @property
    def height(self) -> int:
        return max(self.level[v] for v in self.leaf_order)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def outdegree(self, v: int) -> int:
        return len(self.children[v])

    def parent_list(self) -> list[Optional[int]]:
        return list(self.parent)


def build_tree(parents: Sequence[Optional[int]]) -> RootedTree:
    """Build a tree from a parent list; entry None marks the root.

    Leaves are ordered by vertex index.  Children are ordered by vertex index
    as well, so the same parent list always yields the identical tree.
    """
    n = len(parents)
    if n == 0:
        raise InvalidParameter("empty parent list")
    roots = [v for v, p in enumerate(parents) if p is None]
    if len(roots) > 1:
        raise MultipleRoots(f"vertices {roots} all lack a parent")
    if not roots:
        raise CycleDetected("no root: every vertex has a parent")
    root = roots[0]
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parents):
        if p is None:
            continue
        if not isinstance(p, int) or p < 0 or p >= n:
            raise IndexOutOfRange(f"parent of {v} is {p!r}, not a vertex index")
        children[p].append(v)

    # the one depth-first walk: preorder, levels and the first preorder leaf
    # position below each vertex; vertices on a cycle are never reached
    level = [0] * n
    order = []
    start = [0] * n
    n_leaves = 0
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        start[v] = n_leaves
        kids = children[v]
        if kids:
            below = level[v] + 1
            for c in kids:
                level[c] = below
            stack.extend(reversed(kids))
        else:
            n_leaves += 1
    if len(order) != n:
        raise CycleDetected("graph is not connected to the root")
    stop = start[:]
    for v in reversed(order):
        kids = children[v]
        stop[v] = stop[kids[-1]] if kids else start[v] + 1

    leaf_order = tuple(v for v in range(n) if not children[v])
    return RootedTree(
        parent=tuple(parents),
        children=tuple(tuple(c) for c in children),
        root=root,
        leaf_order=leaf_order,
        level=tuple(level),
        preorder=tuple(order),
        leaf_start=tuple(start),
        leaf_stop=tuple(stop),
    )


def _check_vertex(tree: RootedTree, v: int) -> None:
    if not isinstance(v, int) or v < 0 or v >= tree.n_vertices:
        raise IndexOutOfRange(f"{v!r} is not a vertex of this tree")


def ancestral_level(tree: RootedTree, u: int, v: int) -> int:
    """Level of the lowest common ancestor of u and v.

    Symmetric, and ancestral_level(v, v) is the level of v itself.  This is
    the per-pair query, a parent walk with level alignment costing O(height);
    whole matrices are filled from the tree's preorder leaf ranges instead
    (see ``ancestral_matrices.ancestral_matrix``), and tests use this
    function as their oracle.
    """
    _check_vertex(tree, u)
    _check_vertex(tree, v)
    lu, lv = tree.level[u], tree.level[v]
    while lu > lv:
        u = tree.parent[u]
        lu -= 1
    while lv > lu:
        v = tree.parent[v]
        lv -= 1
    while u != v:
        u = tree.parent[u]
        v = tree.parent[v]
        lu -= 1
    return lu


def leaf_counts(tree: RootedTree) -> list[int]:
    """Number of leaves in the subtree of each vertex.

    For v other than the root this is k_e, the number of leaves below the
    edge e from v to its parent.
    """
    return [b - a for a, b in zip(tree.leaf_start, tree.leaf_stop)]


def subtree_with_map(tree: RootedTree, v: int) -> tuple[RootedTree, tuple[int, ...]]:
    """The subtree rooted at v as a standalone tree, plus the original index
    of each new vertex.  New vertices are numbered in preorder of the subtree,
    preserving children order."""
    _check_vertex(tree, v)
    # the subtree is the run of the preorder from v up to the first vertex
    # whose first leaf lies past v's leaf range; leaf_start never decreases
    # along the preorder
    order = tree.preorder
    first = order.index(v)
    end = bisect_left(order, tree.leaf_stop[v], first + 1,
                      key=tree.leaf_start.__getitem__)
    run = order[first:end]
    index = {w: i for i, w in enumerate(run)}
    parents = [None] + [index[tree.parent[w]] for w in run[1:]]
    return build_tree(parents), run


def subtree(tree: RootedTree, v: int) -> RootedTree:
    """The subtree rooted at v as a standalone tree."""
    return subtree_with_map(tree, v)[0]


def branch_leaf_groups(tree: RootedTree) -> list[tuple[int, list[int]]]:
    """Pairs (branch root, positions in leaf_order of the branch's leaves).

    Groups follow the order in which branches first appear in leaf_order, so
    downstream tie-breaking over branches is deterministic.
    """
    root = tree.root
    parent = tree.parent
    top = [root] * tree.n_vertices  # the branch root above each vertex
    for v in tree.preorder[1:]:
        p = parent[v]
        top[v] = v if p == root else top[p]
    groups: dict[int, list[int]] = {}
    for pos, v in enumerate(tree.leaf_order):
        b = top[v]
        if b in groups:
            groups[b].append(pos)
        else:
            groups[b] = [pos]
    return list(groups.items())


@dataclass(frozen=True)
class StructuralStats:
    L: int
    h: int
    int_count: int
    outdegree_sequence: tuple[int, ...]
    delta: int
    D_root: int


def structural_stats(tree: RootedTree) -> StructuralStats:
    """Leaf count, height, internal count, outdegree data, and the sum of
    leaf levels."""
    degs = tuple(sorted((len(c) for c in tree.children), reverse=True))
    return StructuralStats(
        L=tree.n_leaves,
        h=tree.height,
        int_count=sum(1 for c in tree.children if c),
        outdegree_sequence=degs,
        delta=degs[0],
        D_root=sum(tree.level[v] for v in tree.leaf_order),
    )


# ---------------------------------------------------------------------------
# deterministic generators


def star(n: int) -> RootedTree:
    """Root with n leaf children."""
    if n < 1:
        raise InvalidParameter("star needs at least one leaf")
    return build_tree([None] + [0] * n)


def broom(m: int, n: int) -> RootedTree:
    """n leaves attached to the far end of a length-m path from the root."""
    if m < 0 or n < 1:
        raise InvalidParameter("broom needs m >= 0 and n >= 1")
    parents: list[Optional[int]] = [None]
    for i in range(m):
        parents.append(i)
    parents.extend([m] * n)
    return build_tree(parents)


def path_broom(h: int, n: int) -> RootedTree:
    """Alias of broom(h, n): the defining path has length h."""
    return broom(h, n)


def binary_caterpillar(n: int) -> RootedTree:
    """Backbone of n-1 internal vertices from the root, each with two
    children; n leaves in total.  n = 1 is the single-vertex tree."""
    if n < 1:
        raise InvalidParameter("need at least one leaf")
    if n == 1:
        return build_tree([None])
    parents: list[Optional[int]] = [None]
    spine = 0
    for i in range(n - 1):
        parents.append(spine)  # leaf child
        if i < n - 2:
            parents.append(spine)  # next spine vertex
            spine = len(parents) - 1
        else:
            parents.append(spine)  # second leaf of the last spine vertex
    return build_tree(parents)


def complete_dary(d: int, h: int) -> RootedTree:
    """Every internal vertex has d children and all leaves sit at level h."""
    if d < 1 or h < 0:
        raise InvalidParameter("need d >= 1 and h >= 0")
    parents: list[Optional[int]] = []
    # depth-first so vertex numbers follow preorder, like every other family;
    # siblings are interchangeable, so one stack entry per pending child
    stack: list[tuple[Optional[int], int]] = [(None, 0)]
    while stack:
        parent, depth = stack.pop()
        v = len(parents)
        parents.append(parent)
        if depth < h:
            stack.extend([(v, depth + 1)] * d)
    return build_tree(parents)


def greedy_caterpillar(outdegrees: Sequence[int]) -> RootedTree:
    """Caterpillar whose non-zero outdegrees ascend along the backbone.

    The lowest non-zero entry goes to the root; each backbone vertex except
    the last spends one child on the backbone, the rest on leaves.  Zeros in
    the input are ignored.  The result is validated by reconstruction: its
    outdegree multiset must equal the input.
    """
    seq = sorted(s for s in outdegrees if s != 0)
    if not seq:
        raise InvalidParameter("need at least one non-zero outdegree")
    if seq[0] < 0:
        raise InvalidParameter("outdegrees must be non-negative")
    parents: list[Optional[int]] = [None]
    spine = 0
    for i, s in enumerate(seq):
        n_leaves = s if i == len(seq) - 1 else s - 1
        for _ in range(n_leaves):
            parents.append(spine)
        if i < len(seq) - 1:
            parents.append(spine)
            spine = len(parents) - 1
    tree = build_tree(parents)
    got = sorted(len(c) for c in tree.children if c)
    if got != seq:
        raise InvalidParameter(f"outdegree multiset {seq} is not realizable")
    return tree


def star_plus_path(n: int, h: int) -> RootedTree:
    """Root with n leaves attached, plus a path of length h attached to the
    root.  Its branch spectra are n copies of {1} together with {h}."""
    if n < 0 or h < 0 or (n == 0 and h == 0):
        raise InvalidParameter("need n >= 0, h >= 0, not both zero")
    parents: list[Optional[int]] = [None] + [0] * n
    prev = 0
    for _ in range(h):
        parents.append(prev)
        prev = len(parents) - 1
    return build_tree(parents)


_FAMILIES = {
    "star": (star, 1),
    "broom": (broom, 2),
    "path-broom": (path_broom, 2),
    "binary-caterpillar": (binary_caterpillar, 1),
    "dary": (complete_dary, 2),
    "greedy": (greedy_caterpillar, None),
    "star-plus-path": (star_plus_path, 2),
}


def generate(spec: str) -> RootedTree:
    """Build a family tree from a ``name:comma-separated-ints`` spec string,
    e.g. ``broom:2,3`` or ``greedy:5,5,3,1,1``."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise InvalidParameter(f"unknown family {name!r}")
    func, arity = _FAMILIES[name]
    try:
        args = [int(tok) for tok in rest.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidParameter(f"bad integer in {rest!r}") from exc
    if arity is None:
        return func(args)
    if len(args) != arity:
        raise InvalidParameter(f"{name} takes {arity} integer(s)")
    return func(*args)
