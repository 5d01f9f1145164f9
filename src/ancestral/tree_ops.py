"""Spectral-radius-increasing tree operations.

All three transforms return a new tree over the same vertex arena (star shift
appends one vertex), so leaves keep their indices.  The result is in general
not numbered in preorder, and a moved branch moves its leaves within
leaf_order, so matrices before and after are compared entry by entry through
``leaf_correspondence``, which pairs the positions of each leaf.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BranchOnPath,
    InvalidPath,
    NotAChild,
    NotAllChildrenLeaves,
    TooFewChildren,
    VkIsLeaf,
    W1IsLeaf,
    W2NotLeaf,
)
from .tree_core import RootedTree, build_tree


class OpKind(Enum):
    BRANCH_SHIFT = "branch-shift"
    STAR_SHIFT = "star-shift"
    LEAF_SWAP = "leaf-swap"


class OpSpec(NamedTuple):
    kind: OpKind
    path: tuple[int, ...]
    branch_root: Optional[int] = None  # root of B, or w1 for a leaf swap
    leaf: Optional[int] = None  # u for a star shift, w2 for a leaf swap


def _check_path(tree: RootedTree, path: Sequence[int]) -> None:
    if len(path) < 2:
        raise InvalidPath("need at least two path vertices")
    for v in path:
        if v < 0 or v >= tree.n_vertices:
            raise InvalidPath(f"{v} is not a vertex")
    for a, b in zip(path, path[1:]):
        if tree.parent[b] != a:
            raise InvalidPath(f"{b} is not a child of {a}")


def _is_child(tree: RootedTree, v: Optional[int], p: int) -> bool:
    """Whether v is a vertex index whose parent is p."""
    return v is not None and 0 <= v < tree.n_vertices and tree.parent[v] == p


def branch_shift(tree: RootedTree, spec: OpSpec) -> RootedTree:
    """Move the branch rooted at a child of the first path vertex so that it
    hangs from the last path vertex instead.  Levels of common ancestors
    inside the branch can only grow, so no matrix entry decreases."""
    path = spec.path
    _check_path(tree, path)
    v1, vk = path[0], path[-1]
    if tree.is_leaf(vk):
        raise VkIsLeaf(f"{vk} is a leaf")
    b = spec.branch_root
    if not _is_child(tree, b, v1):
        raise InvalidPath(f"branch root {b} is not a child of {v1}")
    if b == path[1]:
        raise BranchOnPath("the branch contains the path")
    parents = tree.parent_list()
    parents[b] = vk
    return build_tree(parents)


def star_shift(tree: RootedTree, v1: int, u: int) -> RootedTree:
    """Insert a new vertex below v1 and move every leaf child of v1 except u
    under it.  Leaf count is preserved; the internal count grows by one."""
    if v1 < 0 or v1 >= tree.n_vertices:
        raise NotAChild(f"{v1} is not a vertex")
    kids = tree.children[v1]
    if len(kids) < 2:
        raise TooFewChildren(f"{v1} has fewer than two children")
    if any(not tree.is_leaf(c) for c in kids):
        raise NotAllChildrenLeaves(f"{v1} has a non-leaf child")
    if u not in kids:
        raise NotAChild(f"{u} is not a child of {v1}")
    parents = tree.parent_list()
    v2 = len(parents)
    parents.append(v1)
    for c in kids:
        if c != u:
            parents[c] = v2
    return build_tree(parents)


def leaf_swap(tree: RootedTree, spec: OpSpec) -> RootedTree:
    """Exchange a non-leaf child of the first path vertex with a leaf child
    of the last one.  The outdegree sequence is unchanged."""
    path = spec.path
    _check_path(tree, path)
    v1, vk = path[0], path[-1]
    if tree.is_leaf(vk):
        raise VkIsLeaf(f"{vk} is a leaf")
    w1, w2 = spec.branch_root, spec.leaf
    if not _is_child(tree, w1, v1):
        raise InvalidPath(f"{w1} is not a child of {v1}")
    if not _is_child(tree, w2, vk):
        raise InvalidPath(f"{w2} is not a child of {vk}")
    if tree.is_leaf(w1):
        raise W1IsLeaf(f"{w1} is a leaf")
    if not tree.is_leaf(w2):
        raise W2NotLeaf(f"{w2} is not a leaf")
    if w1 == path[1]:
        raise InvalidPath("the swapped subtree contains the path")
    parents = tree.parent_list()
    parents[w1] = vk
    parents[w2] = v1
    return build_tree(parents)


def apply_op(tree: RootedTree, spec: OpSpec) -> RootedTree:
    if spec.kind is OpKind.BRANCH_SHIFT:
        return branch_shift(tree, spec)
    if spec.kind is OpKind.STAR_SHIFT:
        if len(spec.path) != 1:
            raise InvalidPath("a star shift takes a path of exactly one vertex")
        return star_shift(tree, spec.path[0], spec.leaf)
    return leaf_swap(tree, spec)


def leaf_correspondence(before: RootedTree, after: RootedTree) -> list[tuple[int, int]]:
    """Positions of each shared leaf in the two leaf orders.  Vertex indices
    are stable across the transforms, so the map is by identity."""
    pos_after = {v: i for i, v in enumerate(after.leaf_order)}
    return [(i, pos_after[v]) for i, v in enumerate(before.leaf_order)
            if v in pos_after]


def valid_specs(tree: RootedTree, kind: OpKind) -> list[OpSpec]:
    """Every spec of the given kind that apply_op accepts on this tree,
    in a fixed deterministic order."""
    specs: list[OpSpec] = []
    if kind is OpKind.STAR_SHIFT:
        for v1 in range(tree.n_vertices):
            kids = tree.children[v1]
            if len(kids) >= 2 and all(tree.is_leaf(c) for c in kids):
                for u in kids:
                    specs.append(OpSpec(kind, (v1,), None, u))
        return specs
    for v1 in range(tree.n_vertices):
        stack = [(c, (v1, c)) for c in reversed(tree.children[v1])]
        while stack:
            vk, path = stack.pop()
            for c in reversed(tree.children[vk]):
                stack.append((c, path + (c,)))
            if tree.is_leaf(vk):
                continue
            if kind is OpKind.BRANCH_SHIFT:
                for b in tree.children[v1]:
                    if b != path[1]:
                        specs.append(OpSpec(kind, path, b, None))
            else:
                w2s = [w for w in tree.children[vk] if tree.is_leaf(w)]
                for w1 in tree.children[v1]:
                    if tree.is_leaf(w1) or w1 == path[1]:
                        continue
                    for w2 in w2s:
                        specs.append(OpSpec(kind, path, w1, w2))
    return specs


def witness_leaves(tree: RootedTree, spec: OpSpec) -> tuple[int, ...]:
    """Leaves whose Perron entries must be positive for the operation to
    strictly increase the spectral radius.

    Branch shift and leaf swap: the leaf descendants of the last path
    vertex.  Star shift: the children of the starred vertex, which are all
    leaves by precondition.
    """
    if spec.kind is OpKind.STAR_SHIFT:
        return tuple(tree.children[spec.path[0]])
    vk = spec.path[-1]
    return tree.leaf_order[tree.leaf_start[vk]:tree.leaf_stop[vk]]
