"""The ancestral matrix C(T), the path-incidence matrix, and their identities.

Entries are exact Python integers throughout.  Entries themselves are small
(at most the height of the tree) but the algebra downstream of these matrices
needs arbitrary precision, so nothing here ever converts to floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .tree_core import RootedTree, branch_leaf_groups


@dataclass(frozen=True)
class AncestralMatrix:
    """Symmetric leaf-by-leaf matrix of ancestral levels.

    Row/column order is the tree's leaf_order.  Each diagonal entry is the
    level of the leaf and the strict maximum of its row and column.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PathIncidenceMatrix:
    """Leaf-by-edge 0/1 matrix marking the edges on each root-to-leaf path.

    Edges are identified by their child endpoint and ordered by child vertex
    index, so the matrix is reproducible bit for bit.
    """

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]
    edge_order: tuple[tuple[int, int], ...]  # (parent, child) pairs


def ancestral_matrix(tree: RootedTree) -> AncestralMatrix:
    """c_ij = ancestral level of leaves i and j (in leaf_order).

    Filled top-down in O(L^2) list-slice writes instead of one ancestor walk
    per pair.  In the tree's preorder the leaves below a vertex v form the
    contiguous range [leaf_start[v], leaf_stop[v]), and every leaf in that
    range shares v as a common ancestor with every leaf below v.  So each
    vertex carries a row template: its parent's template with v's own leaf
    range set to level(v).  A leaf's template is its row.  The last child of
    a vertex takes the template over; the other children copy it, so there
    are L - 1 copies in all.
    """
    children = tree.children
    level = tree.level
    parent = tree.parent
    start, stop = tree.leaf_start, tree.leaf_stop
    leaf_order = tree.leaf_order
    n = len(leaf_order)
    if n == 1:
        return AncestralMatrix(n=1, rows=((level[leaf_order[0]],),))
    template: list = [None] * len(children)
    template[tree.root] = [0] * n
    rows = []  # in preorder leaf order
    for v in tree.preorder[1:]:
        p = parent[v]
        row = template[p] if children[p][-1] == v else template[p][:]
        a = start[v]
        if children[v]:
            b = stop[v]
            row[a:b] = [level[v]] * (b - a)
            template[v] = row
        else:
            row[a] = level[v]
            rows.append(row)
    perm = [start[v] for v in leaf_order]
    if perm == list(range(n)):
        return AncestralMatrix(n=n, rows=tuple(map(tuple, rows)))
    # vertex numbering is not a preorder: permute back to leaf_order
    pick = itemgetter(*perm)
    return AncestralMatrix(n=n, rows=tuple(pick(rows[i]) for i in perm))


def path_incidence_matrix(tree: RootedTree) -> PathIncidenceMatrix:
    """Row i marks the edges on the path from the root to leaf i."""
    edges = [(tree.parent[v], v) for v in range(tree.n_vertices)
             if tree.parent[v] is not None]
    edge_index = {child: j for j, (_, child) in enumerate(edges)}
    n = tree.n_leaves
    m = len(edges)
    rows = []
    for v in tree.leaf_order:
        row = [0] * m
        w = v
        while tree.parent[w] is not None:
            row[edge_index[w]] = 1
            w = tree.parent[w]
        rows.append(tuple(row))
    return PathIncidenceMatrix(n=n, m=m, rows=tuple(rows),
                               edge_order=tuple(edges))


def gram_product(inc: PathIncidenceMatrix) -> tuple[tuple[int, ...], ...]:
    """I_p times its own transpose, in exact integers."""
    rows = inc.rows
    n = inc.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ri = rows[i]
        for j in range(i, n):
            rj = rows[j]
            s = sum(a & b for a, b in zip(ri, rj))
            out[i][j] = s
            out[j][i] = s
    return tuple(tuple(r) for r in out)


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
    from .tree_core import subtree_with_map

    n = tree.n_leaves
    out = [[0] * n for _ in range(n)]
    if tree.n_vertices == 1:
        return tuple(tuple(r) for r in out)
    pos_of = {v: i for i, v in enumerate(tree.leaf_order)}
    for branch_root, _positions in branch_leaf_groups(tree):
        sub, orig = subtree_with_map(tree, branch_root)
        sub_matrix = ancestral_matrix(sub)
        positions = [pos_of[orig[v]] for v in sub.leaf_order]
        for a, pa in enumerate(positions):
            for b, pb in enumerate(positions):
                out[pa][pb] = sub_matrix.rows[a][b] + 1
    return tuple(tuple(r) for r in out)


def format_matrix(rows) -> str:
    """Rows as space-separated integers, one row per line."""
    return "\n".join(" ".join(str(x) for x in row) for row in rows)
