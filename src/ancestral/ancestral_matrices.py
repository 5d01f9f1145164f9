"""The ancestral matrix C(T), the path-incidence matrix, and their identities.

Entries are exact Python integers throughout.  Entries themselves are small
(at most the height of the tree) but the algebra downstream of these matrices
needs arbitrary precision, so nothing here ever converts to floats.

C(T) is filled once, from the tree's leaf ranges, by ``_fill``; it takes a
per-vertex value table and a per-row finish.  ``ancestral_matrix`` gives it
the levels and makes each row a tuple; ``matrix_text`` gives it each
level's decimal string and joins each row into one line, so the text of C
takes one string per level, not one per entry.  Each row template is freed
as soon as the last child of its vertex takes it over.
"""

from __future__ import annotations

from typing import NamedTuple

from .tree_core import RootedTree, check_dense, subtree


class AncestralMatrix(NamedTuple):
    """Symmetric leaf-by-leaf matrix of ancestral levels.

    Row/column order is the tree's leaf_order.  Each diagonal entry is the
    level of the leaf and the strict maximum of its row and column.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]


class PathIncidenceMatrix(NamedTuple):
    """Leaf-by-edge 0/1 matrix marking the edges on each root-to-leaf path.

    Edges are identified by their child endpoint and ordered by child vertex
    index, so the matrix is reproducible bit for bit.
    """

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]
    edge_order: tuple[tuple[int, int], ...]  # (parent, child) pairs


def _fill(tree: RootedTree, value, finish) -> list:
    """finish(row) for each row of C(T), in leaf_order, where the entry of
    two leaves whose first common ancestor is v holds value[v] in place of
    level(v).

    Filled top-down in O(L^2) list-slice writes instead of one ancestor walk
    per pair.  The leaves below a vertex v are the contiguous range
    [leaf_start[v], leaf_stop[v]) of leaf_order, and every leaf in that
    range shares v as a common ancestor with every leaf below v.  So each
    vertex carries a row template: its parent's template with v's own leaf
    range set to value[v].  A leaf's template is its row, and the preorder
    reaches the leaves in leaf_order.  The last child of a vertex takes the
    template over and the parent drops it; the other children copy it.  So
    there are L - 1 copies in all, and the only templates alive are those
    of vertices on the current root path with children still to visit.
    """
    children = tree.children
    parent = tree.parent
    start, stop = tree.leaf_start, tree.leaf_stop
    n = tree.n_leaves
    check_dense("ancestral matrix", n, n)
    if n == 1:
        return [finish([value[tree.leaf_order[0]]])]
    template: list = [None] * len(children)
    template[tree.root] = [value[tree.root]] * n
    rows = []
    for v in tree.preorder[1:]:
        p = parent[v]
        if children[p][-1] == v:
            row, template[p] = template[p], None
        else:
            row = template[p][:]
        a = start[v]
        if children[v]:
            b = stop[v]
            row[a:b] = [value[v]] * (b - a)
            template[v] = row
        else:
            row[a] = value[v]
            rows.append(finish(row))
    return rows


def ancestral_matrix(tree: RootedTree) -> AncestralMatrix:
    """c_ij = ancestral level of leaves i and j (in leaf_order): the one
    fill of ``_fill`` with the levels as values, each row a tuple."""
    return AncestralMatrix(n=tree.n_leaves,
                           rows=tuple(_fill(tree, tree.level, tuple)))


def matrix_text(tree: RootedTree) -> list[str]:
    """The rows of C(T) as text, entries joined by single spaces: the same
    fill as ``ancestral_matrix``, with each level's decimal string as the
    value, so no entry is converted to text on its own."""
    tokens = [str(x) for x in range(tree.height + 1)]
    return _fill(tree, [tokens[x] for x in tree.level], " ".join)


def path_incidence_matrix(tree: RootedTree) -> PathIncidenceMatrix:
    """Row i marks the edges on the path from the root to leaf i."""
    parent = tree.parent
    edges = [(parent[v], v) for v in range(tree.n_vertices)
             if parent[v] is not None]
    edge_index = {child: j for j, (_, child) in enumerate(edges)}
    n = tree.n_leaves
    m = len(edges)
    check_dense("incidence matrix", n, m)
    rows = []
    for v in tree.leaf_order:
        row = [0] * m
        w = v
        while parent[w] is not None:
            row[edge_index[w]] = 1
            w = parent[w]
        rows.append(tuple(row))
    return PathIncidenceMatrix(n=n, m=m, rows=tuple(rows),
                               edge_order=tuple(edges))


def gram_product(inc: PathIncidenceMatrix) -> tuple[tuple[int, ...], ...]:
    """I_p times its own transpose, in exact integers.  Each 0/1 row is
    packed once into an integer mask, one byte per edge, so entry (i, j)
    counts the bits that rows i and j share."""
    masks = [int.from_bytes(bytes(row), "big") for row in inc.rows]
    return tuple(tuple([(a & b).bit_count() for b in masks]) for a in masks)


def gram_check(tree: RootedTree) -> bool:
    """True iff I_p I_p^t equals the ancestral matrix entrywise."""
    return gram_product(path_incidence_matrix(tree)) == ancestral_matrix(tree).rows


def block_reconstruction(tree: RootedTree) -> tuple[tuple[int, ...], ...]:
    """Rebuild C(T) from the branch matrices.

    For each branch, the submatrix of C(T) on the branch's leaves equals the
    branch's own ancestral matrix plus the all-ones matrix; leaves in distinct
    branches contribute zeros.  A single-vertex tree has no branches and
    reconstructs to [[0]].
    """
    n = tree.n_leaves
    out = [[0] * n for _ in range(n)]
    for c in tree.children[tree.root]:
        a = tree.leaf_start[c]
        for i, row in enumerate(ancestral_matrix(subtree(tree, c)).rows, a):
            out[i][a:a + len(row)] = [x + 1 for x in row]
    return tuple(tuple(r) for r in out)
