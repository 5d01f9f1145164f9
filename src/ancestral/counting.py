"""Exact sizes of rooted-tree classes by key, by Otter's Euler transform.

A key is one of the class keys of ``enumeration``: a vertex count n, a pair
(vertices, leaves), an outdegree multiset with its zeros, or the leaf count
of a series-reduced tree.  Each ``count_<kind>(key, cap)`` returns the
number of trees of the key, or cap + 1 once it passes cap, with no tree
built and no part of a key walked.

The forests, multisets of trees of types w counted T(w), number the
coefficients F of the product over w of (1 - x^w)^-T(w) (Polya 1937,
Otter 1948), and a key's trees are a root over the forests its kind
allows.  The logarithmic derivative along a size gives the recurrence
|s| F(s) = sum over 0 < r <= s of E(r) F(s - r), where E(r) is the sum
over k dividing r of (|r| / k) T(r / k), so each F(s) is one sum over
smaller sizes.  Each sub-key is counted after its own sub-keys: in
increasing size, or for outdegree vectors one coordinate at a time, each
array growing only by the sub-keys reached.

A count stops at the first sub-key whose count passes cap, because counts
are monotone along sub-keys.  Each of these maps is one-to-one, so a key
above a sub-key has at least the sub-key's count of trees: a unary new
root takes (n, l) to (n + 1, l), and n to n + 1; a leaf added to the root
takes (n, l) to (n + 1, l + 1) for n > 1; a new root of outdegree v whose
children are the tree and v - 1 leaves takes the outdegree counts e to
e + u_v (and v - 1 more zeros); a new root over the tree and one leaf
takes a series-reduced n to n + 1.  Chains of these reach a key from each
of its sub-keys, so the key's count passes cap too.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import mul, sub
from typing import Iterator


def _divisors(n: int) -> Iterator[int]:
    return (d for d in range(1, n + 1) if n % d == 0)


def count_vertices(n: int, cap: int) -> int:
    """Rooted trees of n vertices: T(n) = F(n - 1), a root over a forest
    of n - 1 vertices."""
    if n < 1:
        return 0
    trees, forests, weights = [0], [1], [0]
    for m in range(1, n):
        if forests[m - 1] > cap:
            return cap + 1
        trees.append(forests[m - 1])
        weights.append(sum(d * trees[d] for d in _divisors(m)))
        forests.append(sum(map(mul, weights[1:], reversed(forests))) // m)
    return min(forests[n - 1], cap + 1)


def count_reduced(n: int, cap: int) -> int:
    """Series-reduced trees of n leaves: T(n) is F(n) over forests of at
    least two trees, so F(n) = 2 T(n) for n > 1.  The Euler sum for n F(n)
    holds n T(n) in its j = n term, so n T(n) is that sum without it."""
    if n < 1:
        return 0
    trees, forests, weights = [0, 1], [1, 1], [0, 1]
    for m in range(2, n + 1):
        if trees[m - 1] > cap:
            return cap + 1
        below = sum(d * trees[d] for d in _divisors(m) if d < m)
        tree = (sum(map(mul, weights[1:], forests[:0:-1])) + below) // m
        trees.append(tree)
        forests.append(2 * tree)
        weights.append(below + m * tree)
    return min(trees[n], cap + 1)


def count_pairs(key: tuple[int, int], cap: int) -> int:
    """Rooted trees of n vertices and l leaves: T(n, l) = F(n - 1, l), with
    a forest's vertices split into i internal ones and l leaves.  The leaf,
    the one tree with i = 0, is taken out: F(i, l) is the sum of G(i, j)
    over j <= l, G the forests of the other trees, so the states (0, l)
    cost O(1) each and a wide star is linear.
    G takes the Euler sum along i; a state with i, l > 1 sums over the
    shorter of its two sides in Python and the longer one in ``map``."""
    n, leaves = key
    if key == (1, 1):
        return min(1, cap + 1)
    inner = n - 1 - leaves
    if inner < 0 or leaves < 1:
        return 0
    # by rows (internal count) and columns (leaf count): G, and the Euler
    # weights e(i, l), the sum over k | gcd(i, l) of (i / k) T(i / k, l / k)
    g_rows: list[list] = []
    g_cols: list[list] = []
    e_rows: list[list] = []
    e_cols: list[list] = []
    f_rows: list[list] = []
    for m in range(inner + leaves + 1):
        for i in range(max(0, m - leaves), min(inner, m) + 1):
            l = m - i
            if l == 0:
                g_rows.append([])
                e_rows.append([])
                f_rows.append([])
            if i == 0:
                g_cols.append([])
                e_cols.append([])
            if i == 0 or l == 0:
                e, g = 0, int(i == l)
            else:
                e = sum(i // k * f_rows[i // k - 1][l // k]
                        for k in _divisors(math.gcd(i, l)))
                # G(i - b, 0) = 0 for i > b, so only b = i pairs with a = l
                acc = e
                if i <= l:
                    for b in range(1, i):
                        acc += sum(map(mul, e_rows[b][1:l],
                                       g_rows[i - b][l - 1:0:-1]))
                else:
                    for a in range(1, l):
                        acc += sum(map(mul, e_cols[a][1:i],
                                       g_cols[l - a][i - 1:0:-1]))
                g = acc // i
            e_rows[i].append(e)
            e_cols[l].append(e)
            g_rows[i].append(g)
            g_cols[l].append(g)
            f = g + (f_rows[i][-1] if l else 0)
            # F(i, l) = T(i + 1, l), a sub-key
            if l and f > cap:
                return cap + 1
            f_rows[i].append(f)
    return f_rows[inner][leaves]


def count_outdegrees(key: tuple, cap: int) -> int:
    """Rooted trees of one outdegree multiset, its zeros included.  A tree
    is its vector c of counts per nonzero outdegree, its leaves fixed by
    c.  T(c) is the sum over each outdegree v in c of the forests of v
    trees on c - u_v: some k <= v trees that are not a leaf, G(c - u_v, k),
    and v - k leaves.  G takes the Euler sum along the internal count |c|
    with k as its tree-count coordinate: k trees of vector s / k weigh
    (|s| / k) T(s / k).

    Vectors are taken one coordinate at a time, the rarest outdegree first
    and the larger of equally rare ones first, and by size within each: the
    vectors whose last nonzero coordinate is j, after all of those below j.
    A vector's sub-vectors come before it in this order, so a key of many
    distinct outdegrees passes cap inside the box of its first few, and no
    wider layer of vectors is counted."""
    if len(key) != 1 + sum(key):
        return 0
    counts = sorted((n, -v) for v, n in Counter(key).items() if v)
    values = [-v for _, v in counts]
    top = tuple(n for n, _ in counts)
    most = max(values, default=0)
    # c -> [G(c, k) for k <= min(|c|, most)]; no forest needs more trees
    zero = (0,) * len(top)
    forests: dict[tuple, list] = {zero: [1]}
    trees: dict[tuple, int] = {}
    # s -> [(k, (|s| / k) T(s / k)) for k | s, k <= most]
    weights: dict[tuple, list] = {}
    # the vectors counted so far, by size
    box: list[list[tuple]] = [[zero]]
    for j, n in enumerate(top):
        added: list[list[tuple]] = [[]]
        for size in range(1, len(box) + n):
            added.append([])
            for t in range(max(1, size - len(box) + 1), min(n, size) + 1):
                for b in box[size - t]:
                    c = b[:j] + (t,) + b[j + 1:]
                    tree = sum(sum(forests[c[:i] + (c[i] - 1,) + c[i + 1:]]
                                   [:v + 1])
                               for i, v in enumerate(values) if c[i])
                    if tree > cap:
                        return cap + 1
                    trees[c] = tree
                    weights[c] = [(k, size // k
                                   * trees[tuple(x // k for x in c)])
                                  for k in _divisors(math.gcd(*c))
                                  if k <= most]
                    width = min(size, most)
                    forests[c] = ([0, tree] if width < 2 else
                                  _forests(c, size, width, forests, weights))
                    added[size].append(c)
        box = [old + new for old, new in
               itertools.zip_longest(box, added, fillvalue=[])]
    return min(trees.get(top, 1), cap + 1)


def _forests(c: tuple, size: int, width: int, forests: dict,
             weights: dict) -> list:
    """[G(c, k) for k <= width], by the Euler sum over the nonzero
    sub-vectors s of c: |c| G(c, k) is the sum of each weight of k' trees
    of vector s / k' times G(c - s, k - k')."""
    sums = [0] * (width + 1)
    for s in itertools.product(*(range(x + 1) for x in c)):
        if not any(s):
            continue
        below = forests[tuple(map(sub, c, s))]
        for k, weight in weights[s]:
            for j in range(min(width - k, len(below) - 1) + 1):
                sums[k + j] += weight * below[j]
    return [0] + [x // size for x in sums[1:]]
