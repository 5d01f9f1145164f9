"""Workload definitions: the CLI queries, their seeded inputs and their oracles.

Inputs are generated here with the standard library from the seed, never by
the program under test, so a change to the program cannot change a workload.
Each query carries the outputs it must print: the stored seed-commit
reference (``reference.json``), independent oracles computed here, or both.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("large-tree", "class-sweep", "verify-all")

# Verdict threshold of the bounds report: a margin counts as satisfied when
# it is at least -BOUND_TOL.
BOUND_TOL = 1e-7

DEEP = 3000  # depth of the two deep-input probes


@dataclass(frozen=True)
class Query:
    """One CLI invocation and what it must print; every query must exit 0.

    ``oracles`` pairs an oracle name with the exact stdout it predicts;
    ``reference`` says whether the seed-commit output stored under ``name``
    in reference.json applies as well.
    """

    name: str
    argv: tuple[str, ...]
    oracles: tuple[tuple[str, str], ...] = ()
    reference: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# trees as parent lists: parents[0] is None, parents[v] < v for v > 0


def random_parents(rng: random.Random, n_vertices: int, n_leaves: int) -> list:
    """Random recursive tree with exactly n_vertices and n_leaves.

    Each vertex attaches to a uniformly random earlier one; draws with the
    wrong leaf count are rejected, so the seed changes the tree but not its
    size.
    """
    while True:
        parents = [None] + [rng.randrange(v) for v in range(1, n_vertices)]
        if n_vertices - len(set(parents[1:])) == n_leaves:
            return parents


def caterpillar_parents(n: int) -> list:
    """Binary caterpillar with n >= 2 leaves: a spine of n-1 vertices from the
    root, each with a leaf child, the last with two."""
    parents = [None]
    spine = 0
    for i in range(n - 1):
        parents.append(spine)
        parents.append(spine)
        if i < n - 2:
            spine = len(parents) - 1
    return parents


def dary_parents(d: int, h: int) -> list:
    """Complete d-ary tree of height h, numbered in preorder."""
    parents: list = []
    stack = [(None, 0)]
    while stack:
        parent, depth = stack.pop()
        v = len(parents)
        parents.append(parent)
        if depth < h:
            stack.extend([(v, depth + 1)] * d)
    return parents


def _children(parents: list) -> list:
    kids = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p is not None:
            kids[p].append(v)
    return kids


def newick(parents: list) -> str:
    """Unlabelled Newick text, children in index order, built without
    recursion."""
    kids = _children(parents)
    out, stack = [], [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if kids[item]:
            out.append("(")
            stack.append(")")
            for i, c in enumerate(reversed(kids[item])):
                if i:
                    stack.append(",")
                stack.append(c)
    out.append(";")
    return "".join(out)


# ---------------------------------------------------------------------------
# oracles, independent of the program's code


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_sub(a: list, b: list) -> list:
    return _poly_add(a, [-c for c in b])


def _poly_text(coeffs: list) -> str:
    return " ".join(str(c) for c in reversed(coeffs)) + "\n"


def charpoly_dp(parents: list) -> list:
    """det(xI - C) lowest degree first, by a dynamic program over the tree.

    For the subtree at v with levels counted from v, keep P = det(xI - A)
    and S = 1^T adj(xI - A) 1.  A leaf has (x, 1).  The child c contributes
    the block A_c + J, whose determinant is P_c - S_c (determinant lemma) and
    whose S is S_c (Sherman-Morrison); the blocks are diagonal.
    """
    kids = _children(parents)
    P, S = {}, {}
    for v in reversed(range(len(parents))):
        if not kids[v]:
            P[v], S[v] = [0, 1], [1]
            continue
        factors = [_poly_sub(P[c], S[c]) for c in kids[v]]
        prod = [1]
        for f in factors:
            prod = _poly_mul(prod, f)
        s_sum = [0]
        for i, c in enumerate(kids[v]):
            term = S[c]
            for j, f in enumerate(factors):
                if j != i:
                    term = _poly_mul(term, f)
            s_sum = _poly_add(s_sum, term)
        P[v], S[v] = prod, s_sum
    return P[0]


def caterpillar_recursion(n: int) -> list:
    """P_n = (2x - 3) P_{n-1} - (x - 1)^2 P_{n-2}, P_1 = x, P_2 = (x - 1)^2."""
    prev, cur = [0, 1], [1, -2, 1]
    for _ in range(n - 2):
        prev, cur = cur, _poly_sub(_poly_mul([-3, 2], cur),
                                   _poly_mul([1, -2, 1], prev))
    return cur if n >= 2 else prev


def bounds_block(parents: list) -> str:
    """The `bounds` report of one tree, computed from leaf counts per edge.

    Row sums of C are sums of k_e over the edges on a leaf's root path, the
    entry sum is sum k_e^2, the terminal Wiener index is sum k_e (L - k_e),
    and rho is the largest eigenvalue over the branch blocks (numpy
    eigvalsh on a matrix built here).
    """
    kids = _children(parents)
    n = len(parents)
    level = [0] * n
    for v in range(1, n):
        level[v] = level[parents[v]] + 1
    leaves = [v for v in range(n) if not kids[v]]
    n_leaves = len(leaves)
    below = [0] * n
    for v in reversed(range(n)):
        below[v] = 1 if not kids[v] else sum(below[c] for c in kids[v])
    path_sum = [0] * n
    for v in range(1, n):
        path_sum[v] = path_sum[parents[v]] + below[v]
    row_sums = [path_sum[v] for v in leaves]
    avg_ad = Fraction(sum(below[v] ** 2 for v in range(1, n)), n_leaves)
    max_ad = max(row_sums)
    wiener = sum(below[v] * (n_leaves - below[v]) for v in range(1, n))
    tw_bound = Fraction(sum(level[v] for v in leaves)) - Fraction(wiener, n_leaves)
    if tw_bound != avg_ad:
        raise AssertionError("bounds oracle: the two lower bounds disagree")
    height = max(level[v] for v in leaves)
    delta = max(len(k) for k in kids)
    delta_bound = Fraction(n_leaves - 1, delta - 1) if delta >= 2 else Fraction(0)

    rho = 0.0
    for b in kids[0]:
        members, stack = [], [b]
        while stack:
            w = stack.pop()
            members.append(w)
            stack.extend(kids[w])
        col = {w: i for i, w in enumerate(members)}
        branch_leaves = [w for w in members if not kids[w]]
        inc = np.zeros((len(branch_leaves), len(members)))
        for i, w in enumerate(branch_leaves):
            while w is not None and w in col:
                inc[i, col[w]] = 1.0
                w = parents[w]
        rho = max(rho, float(np.linalg.eigvalsh(inc @ inc.T)[-1]))

    margins = (("avg_ad<=rho", rho - float(avg_ad)),
               ("rho<=max_ad", float(max_ad) - rho),
               ("tw_bound<=rho", rho - float(tw_bound)),
               ("height<=rho", rho - float(height)),
               ("delta_bound<=rho", rho - float(delta_bound)))
    lines = [f"rho={format(rho, '.12g')}", f"avg_ad={avg_ad}", f"max_ad={max_ad}",
             f"tw_bound={tw_bound}", f"height={height}", f"delta_bound={delta_bound}"]
    lines += [f"{label}: {'SATISFIED' if m >= -BOUND_TOL else 'VIOLATED'}"
              for label, m in margins]
    return "\n".join(lines) + "\n"


def bounds_text(trees: list) -> str:
    return "\n".join(bounds_block(t) for t in trees)


# ---------------------------------------------------------------------------
# workloads


def _write(input_dir: Path, root: Path, name: str, text: str,
           record: list) -> str:
    path = input_dir / name
    data = text.encode()
    path.write_bytes(data)
    record.append({"file": name, "bytes": len(data),
                   "sha256": hashlib.sha256(data).hexdigest()})
    return str(path.relative_to(root))


def _large_tree(seed: int, input_dir: Path, root: Path, record: list) -> list:
    rng = random.Random(seed)
    small = random_parents(rng, 70, 35)
    big = [random_parents(rng, 600, 300) for _ in range(4)]
    deep = "(" * DEEP + ")" * DEEP + ";"
    small_file = _write(input_dir, root, "random-70.nwk", newick(small) + "\n", record)
    big_file = _write(input_dir, root, "random-600x4.nwk",
                      "".join(newick(t) + "\n" for t in big), record)
    deep_file = _write(input_dir, root, f"path-{DEEP}.nwk", deep + "\n", record)
    return [
        Query("charpoly binary-caterpillar:60",
              ("charpoly", "--gen", "binary-caterpillar:60"),
              oracles=(("tree-dp", _poly_text(charpoly_dp(caterpillar_parents(60)))),
                       ("caterpillar-recursion", _poly_text(caterpillar_recursion(60)))),
              reference=True),
        Query("charpoly random-70", ("charpoly", "--file", small_file),
              oracles=(("tree-dp", _poly_text(charpoly_dp(small))),)),
        Query("bounds dary:2,9", ("bounds", "--gen", "dary:2,9"),
              oracles=(("bounds", bounds_text([dary_parents(2, 9)])),),
              reference=True),
        Query("bounds binary-caterpillar:400",
              ("bounds", "--gen", "binary-caterpillar:400"),
              oracles=(("bounds", bounds_text([caterpillar_parents(400)])),),
              reference=True),
        Query("bounds random-600x4", ("bounds", "--file", big_file),
              oracles=(("bounds", bounds_text(big)),)),
        Query("spectrum dary:2,9", ("spectrum", "--gen", "dary:2,9"), reference=True),
        Query("matrix binary-caterpillar:300",
              ("matrix", "--gen", "binary-caterpillar:300"), reference=True),
        Query("certificate dary:2,8", ("certificate", "--gen", "dary:2,8"),
              reference=True),
        # Deep-input probes: they end in a RecursionError at the seed commit.
        # They stay in so the defect shows; once fixed they cost milliseconds.
        Query(f"gen dary:1,{DEEP}", ("gen", "--gen", f"dary:1,{DEEP}"),
              oracles=(("hand", deep + "\n"),)),
        Query(f"charpoly path-{DEEP}", ("charpoly", "--file", deep_file),
              oracles=(("hand", f"1 -{DEEP}\n"),)),
    ]


def _class_sweep() -> list:
    return [
        # 8,833 of the 32,973 14-vertex trees; rho_max = L(V-L-1)+1 = 43
        Query("search vertices-leaves:14,6",
              ("search", "--class", "vertices-leaves:14,6", "--check", "broom"),
              oracles=(("broom-formula", "VERIFIED rho_max=43\n"),), reference=True),
        # 2,613 of the 87,811 15-vertex trees
        Query("search outdegrees:3,3,2,2,2,1,1",
              ("search", "--class", "outdegrees:3,3,2,2,2,1,1", "--check", "greedy"),
              reference=True),
        # 2,312 trees generated directly, no filtering
        Query("search series-reduced:10",
              ("search", "--class", "series-reduced:10", "--check", "binary-caterpillar"),
              reference=True),
    ]


def _verify_all() -> list:
    return [Query("verify-all 9", ("verify-all", "--max-leaves", "9"), reference=True)]


def build(workload: str, seed: int, input_dir: Path, root: Path) -> tuple[list, list]:
    """The queries of one workload and a digest record of its input files.

    Only large-tree uses the seed; its input files go to input_dir.
    """
    record: list = []
    if workload == "large-tree":
        input_dir.mkdir(parents=True, exist_ok=True)
        queries = _large_tree(seed, input_dir, root, record)
    elif workload == "class-sweep":
        queries = _class_sweep()
    elif workload == "verify-all":
        queries = _verify_all()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return queries, record
