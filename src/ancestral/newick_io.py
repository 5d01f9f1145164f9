"""Newick-style parsing and serialization.

Grammar (whitespace ignored everywhere):

    tree    := subtree ";"
    subtree := "(" subtree ("," subtree)* ")" label?  |  label?
    label   := [A-Za-z0-9_]+

An empty subtree is an unlabeled leaf, so ";" is the single-vertex tree and
"(,,);" is the star with three leaves.  Labels are accepted on parse but
dropped on serialize; the matrices depend only on shape and leaf order, and
unlabeled output is the canonical form.
"""

from __future__ import annotations

from typing import Optional

from .errors import EmptyInput, NewickSyntaxError, TrailingGarbage
from .tree_core import RootedTree, build_tree

_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take_label(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _LABEL_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def tree(self, parents: list[Optional[int]], labels: dict[int, str]) -> None:
        """Read one subtree, appending its vertices in preorder.

        Iterative: ``open_`` holds the internal vertices whose ")" is still
        to come, so nesting depth is bounded only by memory.
        """
        open_: list[int] = []
        while True:
            # at the start of a subtree
            me = len(parents)
            parents.append(open_[-1] if open_ else None)
            if self.peek() == "(":
                self.pos += 1
                open_.append(me)
                continue
            label = self.take_label()
            if label:
                labels[me] = label
            # a subtree just ended: start a sibling, or close parents
            while open_:
                c = self.peek()
                if c == ",":
                    self.pos += 1
                    break
                if c != ")":
                    raise NewickSyntaxError(self.pos, "expected ',' or ')'")
                self.pos += 1
                v = open_.pop()
                label = self.take_label()
                if label:
                    labels[v] = label
            else:
                return


def parse_newick(text: str) -> RootedTree:
    """Parse a Newick string into a tree.

    Vertices are numbered in preorder, so leaf_order coincides with the
    left-to-right textual order of the leaf positions.
    """
    tree, _ = parse_newick_with_labels(text)
    return tree


def parse_newick_with_labels(text: str) -> tuple[RootedTree, dict[int, str]]:
    """Like parse_newick but also returns the vertex -> label map."""
    p = _Parser(text)
    p.skip_ws()
    if p.pos >= len(text):
        raise EmptyInput("no tree in input")
    parents: list[Optional[int]] = []
    labels: dict[int, str] = {}
    p.tree(parents, labels)
    if p.peek() != ";":
        raise NewickSyntaxError(p.pos, "expected ';'")
    p.pos += 1
    p.skip_ws()
    if p.pos < len(text):
        raise TrailingGarbage(p.pos)
    return build_tree(parents), labels


def serialize_newick(tree: RootedTree, labels: Optional[dict[int, str]] = None) -> str:
    """Canonical text form: children in stored order, no whitespace, leaves
    unlabeled unless a label map is supplied, terminated by ";"."""
    parts: list[str] = []
    # pending items: a vertex to emit, or literal text; no recursion
    stack: list = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label = labels.get(item, "") if labels else ""
        kids = tree.children[item]
        if not kids:
            parts.append(label)
            continue
        parts.append("(")
        stack.append(")" + label)
        for i, c in enumerate(reversed(kids)):
            if i:
                stack.append(",")
            stack.append(c)
    parts.append(";")
    return "".join(parts)
