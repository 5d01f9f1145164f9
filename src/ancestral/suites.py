"""The theorem suites that ``verify-all`` runs, one row per statement.

Each row is (name, cases, check): the statement holds when check(case) is
true for every case.  ``_suites`` yields the rows one at a time, in output
order, over a corpus of every tree of at most max_leaves + 1 vertices and
the families, classes and sizes each statement is about: the Gram
identity, the block structure, the eigenvalue-1 multiplicity, the rho
bounds, the broom, greedy and series-reduced extremality, the caterpillar
recursion and asymptotics, the collection coefficients, the d-ary
determinant, monotonicity under the tree operations and the Newick round
trip.  ``_case_text`` names a failing case.  Only ``verify-all`` imports
this module, so no other command compiles it.  The extremality suites check
the claimed trees of ``search``, through ``enumeration.verify_claim``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import enumeration
from .ancestral_matrices import ancestral_matrix, block_reconstruction, gram_check
from .bounds_theorems import bound_report, is_complete_dary
from .caterpillar_analysis import (
    asymptotic_rho,
    caterpillar_charpoly,
    chebyshev_form_check,
    trig_spectral_radius,
)
from .exact_charpoly import char_poly, dary_determinant_check
from .newick_io import parse_newick, serialize_newick
from .path_collections import count_by_edge_states
from .spectral import eigenvalue_one_certificate, spectral_radius
from .tree_core import RootedTree, binary_caterpillar, generate, structural_stats
from .tree_ops import OpKind, OpSpec, apply_op, valid_specs, witness_leaves


def _corpus(max_leaves: int) -> list[RootedTree]:
    # count the largest classes first, so one over the cap fails before any
    # class is built; the broom and greedy classes lie inside vertex classes
    # that the vertex count bounds
    enumeration.class_size(enumeration.by_vertex_count(max_leaves + 1))
    enumeration.class_size(enumeration.series_reduced(max_leaves))
    trees = []
    for n in range(1, max_leaves + 2):
        trees.extend(enumeration.enumerate_class(enumeration.by_vertex_count(n)))
    return trees


def _per_tree_memo(compute):
    """compute(tree) on first use, kept for the run by identity: only
    corpus trees ask, and the corpus outlives the run, so no id is reused."""
    kept = {}
    def get(t):
        if id(t) not in kept:
            kept[id(t)] = compute(t)
        return kept[id(t)]
    return get


def _collections_match(t: RootedTree, poly) -> bool:
    result = count_by_edge_states(t)
    sign = 1 if t.n_leaves % 2 == 0 else -1
    return (list(result.counts) == poly.gamma()
            and result.total == sign * poly(-1))


def _dary_determinants_hold(t: RootedTree) -> bool:
    degs = {len(c) for c in t.children if c}
    return all(dary_determinant_check(t, d).equal
               for d in (2, 3) if degs <= {d})


def _broom_holds(cls, report) -> bool:
    """The broom is extremal by cls's report and its rho is the formula's
    integer, exactly: its branches' leaves share one row sum."""
    n_vertices, n_leaves = cls.params
    expected = n_leaves * (n_vertices - n_leaves - 1) + 1
    return report.holds and report.rho_claimed == expected


def _trig_matches(n: int) -> bool:
    numeric = spectral_radius(binary_caterpillar(n)).rho
    return abs(trig_spectral_radius(n).rho - numeric) <= 1e-6 * numeric


def _monotonicity_cases(max_leaves: int):
    """(tree, spec): up to 60 random trees with a spec per operation kind."""
    rng = random.Random(20260814)
    for kind in OpKind:
        done = 0
        attempts = 0
        while done < 60 and attempts < 4000:
            attempts += 1
            t = enumeration.random_tree(rng.randint(3, max_leaves + 1), rng)
            specs = valid_specs(t, kind)
            if specs:
                done += 1
                yield t, specs[rng.randrange(len(specs))]


def _monotone(t: RootedTree, spec: OpSpec) -> bool:
    """rho never decreases, and grows when the Perron vector is positive on
    every witness leaf."""
    sr = spectral_radius(t)
    after = spectral_radius(apply_op(t, spec)).rho
    if after < sr.rho - 1e-9:
        return False
    witnessed = all(sr.perron[t.leaf_start[v]] > 1e-6
                    for v in witness_leaves(t, spec))
    return not (witnessed and after < sr.rho + 1e-9)


def _round_trip_samples(trees: list[RootedTree], max_leaves: int):
    yield from trees
    for spec in ("star:3", "broom:2,3", "path-broom:1,4",
                 "binary-caterpillar:5", "dary:2,3", "greedy:3,2,2",
                 "star-plus-path:3,4"):
        yield generate(spec)
    rng = random.Random(1205)
    for _ in range(200):
        yield enumeration.random_tree(rng.randint(1, 2 * max_leaves), rng)


def _round_trips(t: RootedTree) -> bool:
    text = serialize_newick(t)
    back = parse_newick(text)
    return back.parent_list() == t.parent_list() and serialize_newick(back) == text


def _suites(max_leaves: int):
    """The (name, cases, check) row of each theorem, one at a time in output
    order: the theorem holds when check(case) is true for every case."""
    trees = _corpus(max_leaves)
    branching = [t for t in trees if t.n_vertices > 1]
    # per corpus tree, one polynomial and one bound report's two verdicts
    poly = _per_tree_memo(char_poly)

    def bound_verdicts(t):
        rep = bound_report(t)
        return rep.all_satisfied, rep.delta_equality
    verdicts = _per_tree_memo(bound_verdicts)

    yield "gram-identity", trees, gram_check
    yield ("block-structure", trees,
           lambda t: block_reconstruction(t) == ancestral_matrix(t).rows)
    # C is symmetric, so the multiplicity of 1 as a root of its
    # characteristic polynomial is the dimension of its eigenspace
    yield ("eigenvalue-one", branching,
           lambda t: eigenvalue_one_certificate(t).multiplicity
           == poly(t).multiplicity(1))
    yield "bounds", branching, lambda t: verdicts(t)[0]
    yield ("delta-equality", branching,
           lambda t: verdicts(t)[1] == is_complete_dary(t))
    yield ("trace-identity", trees,
           lambda t: -poly(t).coeffs[-2] == structural_stats(t).D_root)
    yield ("collection-coefficients", trees,
           lambda t: _collections_match(t, poly(t)))
    # no later suite reads the memos: free them before the run's peak memory
    del poly, verdicts
    yield "dary-determinant", trees, _dary_determinants_hold
    yield ("broom-extremality",
           (enumeration.by_vertices_and_leaves(n_vertices, n_leaves)
            for n_vertices in range(3, max_leaves + 2)
            for n_leaves in range(2, n_vertices)),
           lambda cls: _broom_holds(cls, enumeration.verify_claim(cls, "broom")))
    yield ("greedy-extremality",
           (enumeration.by_outdegree_sequence(seq)
            for n_vertices in range(2, max_leaves + 2)
            for seq in enumeration.outdegree_sequences(n_vertices)),
           lambda cls: enumeration.verify_claim(cls, "greedy").holds)
    yield ("series-reduced-extremality",
           map(enumeration.series_reduced, range(2, max_leaves + 1)),
           lambda cls: enumeration.verify_claim(cls, "binary-caterpillar").holds)
    yield ("caterpillar-recursion", range(1, max_leaves + 1),
           lambda n: caterpillar_charpoly(n).coeffs
           == char_poly(binary_caterpillar(n)).coeffs)
    yield ("chebyshev-closed-form",
           ((n, Fraction(2) + Fraction(j, 5))
            for n in range(2, min(max_leaves, 8) + 1) for j in range(10)),
           lambda case: chebyshev_form_check(*case))
    yield ("trig-spectral-radius", range(3, max(max_leaves, 8) + 1),
           _trig_matches)
    yield ("asymptotic-window", range(10, 10 * max_leaves + 1),
           lambda n: abs(trig_spectral_radius(n).rho - asymptotic_rho(n)) <= 3.0)
    yield ("monotonicity", _monotonicity_cases(max_leaves),
           lambda case: _monotone(*case))
    yield ("newick-round-trip", _round_trip_samples(trees, max_leaves),
           _round_trips)


def _case_text(case) -> str:
    """How stderr names a case: Newick for a tree, kind(params) for a class,
    the transform flags of an operation, and otherwise the value itself."""
    if isinstance(case, RootedTree):
        return serialize_newick(case)
    if isinstance(case, enumeration.TreeClass):
        return f"{case.kind}{case.params}"
    if isinstance(case, OpSpec):
        flags = (("--op", case.kind.value),
                 ("--path", ",".join(str(v) for v in case.path)),
                 ("--branch", case.branch_root), ("--leaf", case.leaf))
        return " ".join(f"{flag} {value}" for flag, value in flags
                        if value is not None)
    # the records above are tuples too, so this branch comes after them
    if isinstance(case, tuple):
        return " ".join(_case_text(part) for part in case)
    return str(case)
