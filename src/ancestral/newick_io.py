"""Newick-style parsing and serialization.

Grammar (whitespace ignored everywhere):

    tree    := subtree ";"
    subtree := "(" subtree ("," subtree)* ")" label?  |  label?
    label   := [A-Za-z0-9_]+

An empty subtree is an unlabeled leaf, so ";" is the single-vertex tree and
"(,,);" is the star with three leaves.  Labels are accepted on parse but
dropped on serialize; the matrices depend only on shape and leaf order, and
unlabeled output is the canonical form.

Parsing reads the tokens of one compiled regular expression in one pass and
numbers the vertices in preorder, so ``build_tree`` takes its one-pass
route; serializing is one pass over the tree's preorder.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import Optional

from .errors import EmptyInput, NewickSyntaxError, TrailingGarbage
from .tree_core import RootedTree, build_tree

# one token: a punctuation mark, a whole label, or any other single
# character, which the grammar then refuses where it stands; whitespace
# separates tokens and is skipped
_TOKEN = re.compile(r"[(),;]|[A-Za-z0-9_]+|\S")
_END = re.compile(r"\Z")
_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def parse_newick(text: str) -> RootedTree:
    """Parse a Newick string into a tree.

    Vertices are numbered in preorder, so leaf_order coincides with the
    left-to-right textual order of the leaf positions.
    """
    tree, _ = parse_newick_with_labels(text)
    return tree


def parse_newick_with_labels(text: str) -> tuple[RootedTree, dict[int, str]]:
    """Like parse_newick but also returns the vertex -> label map.

    One pass over the token matches, which are streamed, never listed; past
    the last one the stream repeats an empty match at the end of the text,
    so every error names the start of the match it stopped at.  ``open_``
    holds the internal vertices whose ")" is still to come, so nesting
    depth is bounded only by memory.
    """
    end = _END.match(text, len(text))
    tokens = chain(_TOKEN.finditer(text), repeat(end))
    tok = (match := next(tokens))[0]
    if not tok:
        raise EmptyInput("no tree in input")
    parents: list[Optional[int]] = []
    labels: dict[int, str] = {}
    open_: list[int] = []
    while True:
        # at the start of a subtree
        me = len(parents)
        parents.append(open_[-1] if open_ else None)
        if tok == "(":
            open_.append(me)
            tok = (match := next(tokens))[0]
            continue
        if tok and tok[0] in _LABEL_CHARS:
            labels[me] = tok
            tok = (match := next(tokens))[0]
        # a subtree just ended: start a sibling, or close parents
        while open_:
            if tok == ",":
                tok = (match := next(tokens))[0]
                break
            if tok != ")":
                raise NewickSyntaxError(match.start(), "expected ',' or ')'")
            v = open_.pop()
            tok = (match := next(tokens))[0]
            if tok and tok[0] in _LABEL_CHARS:
                labels[v] = tok
                tok = (match := next(tokens))[0]
        else:
            break
    if tok != ";":
        raise NewickSyntaxError(match.start(), "expected ';'")
    if (match := next(tokens))[0]:
        raise TrailingGarbage(match.start())
    return build_tree(parents), labels


def serialize_newick(tree: RootedTree, labels: Optional[dict[int, str]] = None) -> str:
    """Canonical text form: children in stored order, no whitespace, leaves
    unlabeled unless a label map is supplied, terminated by ";".

    One pass over the preorder: an internal vertex opens "(", a leaf writes
    its label, and after a leaf the walk up from it closes every parent of
    which it ends the last child, then writes "," before the next sibling.
    """
    label = labels.get if labels else {}.get
    parent, children, root = tree.parent, tree.children, tree.root
    parts: list[str] = []
    for v in tree.preorder:
        if children[v]:
            parts.append("(")
            continue
        parts.append(label(v, ""))
        while v != root:
            p = parent[v]
            if children[p][-1] != v:
                parts.append(",")
                break
            parts.append(")" + label(p, ""))
            v = p
    parts.append(";")
    return "".join(parts)
