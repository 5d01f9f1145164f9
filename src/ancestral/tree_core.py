"""Rooted-tree data model, structural queries, and deterministic family generators.

Vertices are dense 0-based indices in an arena.  A tree is immutable after
construction; every operation below is a pure function.  The canonical row and
column order for all leaf-indexed matrices is ``leaf_order``: the leaves in
preorder, children in stored order.

``build_tree`` makes the one pass over a tree and keeps its preorder, its
leaves and the range of ``leaf_order`` below each vertex on the tree; every
other layer reads those arrays instead of walking the tree again.  A parent
list numbered in preorder, as every generator, the parser and ``subtree``
make, is read in one forward pass; any other list takes a depth-first walk.
Since every leaf order gives a permutation-similar matrix, the preorder one
loses nothing and keeps each branch's leaves contiguous.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .errors import (
    CycleDetected,
    IndexOutOfRange,
    InvalidParameter,
    MultipleRoots,
)


class RootedTree(NamedTuple):
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
        every childless vertex once, in preorder; row/column order for
        matrices.
    level : tuple of int
        level[v] is the distance from the root to v.
    preorder : tuple of int
        every vertex once, parents before children, children in stored
        order.
    leaf_start, leaf_stop : tuple of int
        the leaves below v are leaf_order[leaf_start[v]:leaf_stop[v]], and
        a leaf v sits at position leaf_start[v]; their number is
        leaf_stop[v] - leaf_start[v].

    The last three are functions of ``children``.  Like every field of a
    record they take part in equality, hash and repr, which changes no
    comparison between trees.
    """

    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    root: int
    leaf_order: tuple[int, ...]
    level: tuple[int, ...]
    preorder: tuple[int, ...]
    leaf_start: tuple[int, ...]
    leaf_stop: tuple[int, ...]

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

    def parent_list(self) -> list[Optional[int]]:
        return list(self.parent)


def build_tree(parents: Sequence[Optional[int]]) -> RootedTree:
    """Build a tree from a parent list; entry None marks the root.

    Children are ordered by vertex index and leaves by preorder, so the same
    parent list always yields the identical tree.  A list numbered in
    preorder, in which parents[0] is None and each other parents[v] lies on
    the root path of v - 1, is read in one forward pass, and its leaf_order
    is ascending; every generator and parser here makes such lists.  The
    first entry that breaks the preorder hands the list to a depth-first
    walk, which takes any list and names what is wrong with an invalid one.
    """
    if len(parents) == 0:
        raise InvalidParameter("empty parent list")
    return _build_preorder(parents) or _build_walk(parents)


def _build_preorder(parents: Sequence[Optional[int]]) -> Optional[RootedTree]:
    """The tree of a parent list numbered in preorder, in one forward pass,
    or None at the first entry that breaks the preorder.

    ``path`` is the root path of the vertex before v, and ``kids`` the
    children met so far of each vertex on it.  v's parent must be on that
    path.  The vertex before v is a leaf exactly when it is not v's parent,
    and every vertex popped to reach the parent has all its leaves and
    children before v.
    """
    n = len(parents)
    if parents[0] is not None:
        return None
    children: list[tuple[int, ...]] = [()] * n
    level = [0] * n
    start = [0] * n
    stop = [0] * n
    leaves: list[int] = []
    path = [0]
    kids: list[list[int]] = [[]]
    last = 0
    for v, p in enumerate(islice(parents, 1, None), 1):
        if type(p) is not int:
            return None
        if p == last:
            start[v] = start[p]
        else:
            leaves.append(last)
            k = len(leaves)
            stop[last] = k
            path.pop()
            kids.pop()
            while path and path[-1] > p:
                u = path.pop()
                stop[u] = k
                children[u] = tuple(kids.pop())
            if not path or path[-1] != p:
                return None
            start[v] = k
        kids[-1].append(v)
        level[v] = len(path)
        path.append(v)
        kids.append([])
        last = v
    leaves.append(last)
    k = len(leaves)
    for u, c in zip(path, kids):
        stop[u] = k
        children[u] = tuple(c)
    return RootedTree(
        parent=tuple(parents),
        children=tuple(children),
        root=0,
        leaf_order=tuple(leaves),
        level=tuple(level),
        preorder=tuple(range(n)),
        leaf_start=tuple(start),
        leaf_stop=tuple(stop),
    )


def _build_walk(parents: Sequence[Optional[int]]) -> RootedTree:
    """The tree of any non-empty parent list, by one depth-first walk."""
    n = len(parents)
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
        if isinstance(p, bool) or not isinstance(p, int) or p < 0 or p >= n:
            raise IndexOutOfRange(f"parent of {v} is {p!r}, not a vertex index")
        children[p].append(v)

    # the one depth-first walk: preorder, leaves, levels and the first leaf
    # position below each vertex; vertices on a cycle are never reached
    level = [0] * n
    order = []
    leaves = []
    start = [0] * n
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        start[v] = len(leaves)
        kids = children[v]
        if kids:
            below = level[v] + 1
            for c in kids:
                level[c] = below
            stack.extend(reversed(kids))
        else:
            leaves.append(v)
    if len(order) != n:
        raise CycleDetected("graph is not connected to the root")
    stop = start[:]
    for v in reversed(order):
        kids = children[v]
        stop[v] = stop[kids[-1]] if kids else start[v] + 1

    return RootedTree(
        parent=tuple(parents),
        children=tuple(map(tuple, children)),
        root=root,
        leaf_order=tuple(leaves),
        level=tuple(level),
        preorder=tuple(order),
        leaf_start=tuple(start),
        leaf_stop=tuple(stop),
    )


def _is_vertex(tree: RootedTree, v) -> bool:
    # a bool is an int but not a vertex, as build_tree refuses a bool parent
    return type(v) is int and 0 <= v < tree.n_vertices


def _check_vertex(tree: RootedTree, v: int) -> None:
    if not _is_vertex(tree, v):
        raise IndexOutOfRange(f"{v!r} is not a vertex of this tree")


def ancestral_level(tree: RootedTree, u: int, v: int) -> int:
    """Level of the lowest common ancestor of u and v.

    Symmetric, and ancestral_level(v, v) is the level of v itself.  This is
    the per-pair query, a parent walk with level alignment costing O(height);
    whole matrices are filled from the tree's preorder leaf ranges instead
    (see ``ancestral_matrices._fill``), and tests use this function as their
    oracle.
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


def row_sums(tree: RootedTree) -> list[int]:
    """Per vertex, the sum of the leaf counts k of the vertices on its root
    path, the root left out: 0 at the root.

    Since C(T) = I_p I_p^T, a leaf's entry is its row sum of C(T), and also
    its row sum of C(B) + J for the branch B below the root that holds it.
    Path sums grow down every path, so a leaf holds the largest entry.
    """
    parent, start, stop = tree.parent, tree.leaf_start, tree.leaf_stop
    path = [0] * tree.n_vertices
    for v in tree.preorder[1:]:
        path[v] = path[parent[v]] + stop[v] - start[v]
    return path


def preorder_run(tree: RootedTree, v: int,
                 start: int = 0) -> tuple[tuple[int, ...], int]:
    """The subtree of v as its run of the preorder, v first, and the
    preorder position just past the run, which ends at v's last leaf.  The
    preorder is scanned in C from start, at or before v's position, so the
    runs of siblings, taken in order, scan it about once in all."""
    order = tree.preorder
    a = order.index(v, start)
    b = order.index(tree.leaf_order[tree.leaf_stop[v] - 1], a) + 1
    return order[a:b], b


def subtree_with_map(tree: RootedTree, v: int) -> tuple[RootedTree, tuple[int, ...]]:
    """The subtree rooted at v as a standalone tree, plus the original index
    of each new vertex.  New vertices are numbered in preorder of the subtree,
    preserving children order."""
    _check_vertex(tree, v)
    run, _ = preorder_run(tree, v)
    index = {w: i for i, w in enumerate(run)}
    parents = [None] + [index[tree.parent[w]] for w in run[1:]]
    return build_tree(parents), run


def subtree(tree: RootedTree, v: int) -> RootedTree:
    """The subtree rooted at v as a standalone tree."""
    return subtree_with_map(tree, v)[0]


class StructuralStats(NamedTuple):
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
    """Root with n leaf children: the greedy caterpillar of the outdegree n."""
    if n < 1:
        raise InvalidParameter("star needs at least one leaf")
    return greedy_caterpillar([n])


def broom(m: int, n: int) -> RootedTree:
    """n leaves attached to the far end of a length-m path from the root:
    the greedy caterpillar of the outdegrees 1 (m times) and n."""
    if m < 0 or n < 1:
        raise InvalidParameter("broom needs m >= 0 and n >= 1")
    return greedy_caterpillar([1] * m + [n])


def path_broom(h: int, n: int) -> RootedTree:
    """Alias of broom(h, n): the defining path has length h."""
    return broom(h, n)


def binary_caterpillar(n: int) -> RootedTree:
    """Backbone of n-1 internal vertices from the root, each with two
    children; n leaves in total.  This is the greedy caterpillar of the
    outdegree 2 taken n - 1 times; n = 1 is the single-vertex tree."""
    if n < 1:
        raise InvalidParameter("need at least one leaf")
    if n == 1:
        return build_tree([None])
    return greedy_caterpillar([2] * (n - 1))


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
    the input are ignored.
    """
    seq = sorted(s for s in outdegrees if s != 0)
    if not seq:
        raise InvalidParameter("need at least one non-zero outdegree")
    if seq[0] < 0:
        raise InvalidParameter("outdegrees must be non-negative")
    parents: list[Optional[int]] = [None]
    spine = 0
    for s in seq:
        # s children, leaves first; the last is the next backbone vertex
        parents.extend([spine] * s)
        spine = len(parents) - 1
    return build_tree(parents)


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


# the most vertices a family spec may build: ``generate`` refuses a larger
# one before any list is built
FAMILY_CAP = 10 ** 6
# the most entries a dense output may hold: the L x L ancestral matrix, the
# L x E incidence matrix, the eigenvalue-1 basis and one block-route block
# of the spectrum are each refused past it, before they are allocated
DENSE_CAP = 10 ** 7


def check_dense(what: str, rows: int, cols: int) -> None:
    """Refuse a dense ``what`` of rows x cols entries past ``DENSE_CAP``."""
    if rows * cols > DENSE_CAP:
        raise InvalidParameter(f"{what} of {rows} x {cols} entries is past "
                               f"the cap {DENSE_CAP}")


def _broom_vertices(m: int, n: int) -> int:
    return m + n + 1 if m >= 0 and n >= 1 else 0


def _dary_vertices(d: int, h: int) -> int:
    """1 + d + ... + d^h, summed level by level and stopped once past
    FAMILY_CAP, so that a huge h never builds d^(h+1)."""
    if d < 1 or h < 0:
        return 0
    if d == 1:
        return h + 1
    total = level = 1
    for _ in range(h):
        level *= d
        total += level
        if total > FAMILY_CAP:
            break
    return total


# each family: constructor, arity, and its vertex count from the parameters
# alone; the count is exact up to FAMILY_CAP, at least FAMILY_CAP + 1
# past it, and 0 for parameters the constructor refuses, so that its own
# message stands
_FAMILIES = {
    "star": (star, 1, lambda n: n + 1),
    "broom": (broom, 2, _broom_vertices),
    "path-broom": (path_broom, 2, _broom_vertices),
    "binary-caterpillar": (binary_caterpillar, 1, lambda n: 2 * n - 1),
    "dary": (complete_dary, 2, _dary_vertices),
    "greedy": (greedy_caterpillar, None,
               lambda seq: 1 + sum(seq) if min(seq, default=0) >= 0 else 0),
    "star-plus-path": (star_plus_path, 2,
                       lambda n, h: n + h + 1 if n >= 0 and h >= 0 else 0),
}


def parse_spec(spec: str, table: dict, what: str) -> tuple[tuple, list]:
    """The row of ``table`` that a ``name:comma-separated-ints`` spec names,
    and the arguments for its constructor, the row's first entry: the
    integers one by one, or as one list when the row's arity, its second
    entry, is None.  Errors name the spec as a ``what`` spec."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in table:
        raise InvalidParameter(f"{what} spec {spec!r}: unknown name {name!r}")
    row = table[name]
    arity = row[1]
    try:
        # an empty list stays empty; an empty token is a bad integer
        args = [int(tok) for tok in rest.split(",")] if rest.strip() else []
    except ValueError as exc:
        raise InvalidParameter(f"{what} spec {spec!r}: bad integer") from exc
    if arity is None:
        return row, [args]
    if len(args) != arity:
        raise InvalidParameter(
            f"{what} spec {spec!r}: {name} takes {arity} integer(s)")
    return row, args


def generate(spec: str) -> RootedTree:
    """Build a family tree from a ``name:comma-separated-ints`` spec string,
    e.g. ``broom:2,3`` or ``greedy:5,5,3,1,1``.  A family of more than
    ``FAMILY_CAP`` vertices is refused before it is built."""
    (build, _, vertices), args = parse_spec(spec, _FAMILIES, "family")
    size = vertices(*args)
    if size > FAMILY_CAP:
        raise InvalidParameter(f"family spec {spec!r}: at least {size} "
                               f"vertices, past the cap {FAMILY_CAP}")
    return build(*args)
