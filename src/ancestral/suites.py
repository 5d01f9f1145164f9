"""The theorem suites that ``verify-all`` runs, one row per statement.

Each row is (name, cases, check): the statement holds when check(case) is
true for every case.  ``_suites`` yields the rows one at a time, in output
order, over the corpus of ``_corpus``, every tree of at most max_leaves + 1
vertices, and the families, classes and sizes each statement is about: the
Gram identity, the block structure, the eigenvalue-1 multiplicity, the rho
bounds, the broom, greedy and series-reduced extremality, the caterpillar
recursion and asymptotics, the collection coefficients, the d-ary
determinant, monotonicity under the tree operations and the Newick round
trip.  ``_case_text`` names a failing case.  Only ``verify-all`` imports
this module, so no other command compiles it.  The extremality suites check
the claimed trees of ``search``, through ``enumeration.verify_claim``.

Each case comes with its position.  ``_verify_all``, the whole of
``verify-all``, deals the cases of every suite into interleaved shares by
it, one process per share, and merges them: each worker checks its share
with ``_first_event`` and sends one ``marshal`` record per suite over a
pipe.  A corpus tree keeps its corpus position in every per-tree suite, so
the one share that holds it derives its polynomial and bound report, and
each share keeps memos only of its own trees.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
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
    """At t's one internal outdegree d >= 2; the single vertex at d = 2, 3."""
    degs = {len(c) for c in t.children if c}
    return all(dary_determinant_check(t, d).equal
               for d in (degs or {2, 3}) if len(degs) <= 1 and d >= 2)


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


def _suites(trees: list[RootedTree], max_leaves: int):
    """The (name, cases, check) row of each theorem over the corpus trees of
    ``_corpus(max_leaves)``, one at a time in output order: the theorem
    holds when check(case) is true for every case.  cases gives each case
    with its position, in increasing order."""
    numbered = list(enumerate(trees))
    branching = [(p, t) for p, t in numbered if t.n_vertices > 1]
    # per corpus tree, one polynomial and one bound report's two verdicts
    poly = _per_tree_memo(char_poly)

    def bound_verdicts(t):
        rep = bound_report(t)
        return rep.all_satisfied, rep.delta_equality
    verdicts = _per_tree_memo(bound_verdicts)

    yield "gram-identity", numbered, gram_check
    yield ("block-structure", numbered,
           lambda t: block_reconstruction(t) == ancestral_matrix(t).rows)
    # C is symmetric, so the multiplicity of 1 as a root of its
    # characteristic polynomial is the dimension of its eigenspace
    yield ("eigenvalue-one", branching,
           lambda t: eigenvalue_one_certificate(t).multiplicity
           == poly(t).multiplicity(1))
    yield "bounds", branching, lambda t: verdicts(t)[0]
    yield ("delta-equality", branching,
           lambda t: verdicts(t)[1] == is_complete_dary(t))
    yield ("trace-identity", numbered,
           lambda t: -poly(t).coeffs[-2] == structural_stats(t).D_root)
    yield ("collection-coefficients", numbered,
           lambda t: _collections_match(t, poly(t)))
    # no later suite reads the memos: free them before the run's peak memory
    del poly, verdicts
    yield "dary-determinant", numbered, _dary_determinants_hold
    yield ("broom-extremality",
           enumerate(enumeration.by_vertices_and_leaves(n_vertices, n_leaves)
                     for n_vertices in range(3, max_leaves + 2)
                     for n_leaves in range(2, n_vertices)),
           lambda cls: _broom_holds(cls, enumeration.verify_claim(cls, "broom")))
    yield ("greedy-extremality",
           enumerate(enumeration.by_outdegree_sequence(seq)
                     for n_vertices in range(2, max_leaves + 2)
                     for seq in enumeration.outdegree_sequences(n_vertices)),
           lambda cls: enumeration.verify_claim(cls, "greedy").holds)
    yield ("series-reduced-extremality",
           enumerate(map(enumeration.series_reduced,
                         range(2, max_leaves + 1))),
           lambda cls: enumeration.verify_claim(cls, "binary-caterpillar").holds)
    yield ("caterpillar-recursion", enumerate(range(1, max_leaves + 1)),
           lambda n: caterpillar_charpoly(n).coeffs
           == char_poly(binary_caterpillar(n)).coeffs)
    yield ("chebyshev-closed-form",
           enumerate((n, Fraction(2) + Fraction(j, 5))
                     for n in range(2, min(max_leaves, 8) + 1)
                     for j in range(10)),
           lambda case: chebyshev_form_check(*case))
    yield ("trig-spectral-radius",
           enumerate(range(3, max(max_leaves, 8) + 1)), _trig_matches)
    yield ("asymptotic-window", enumerate(range(10, 10 * max_leaves + 1)),
           lambda n: abs(trig_spectral_radius(n).rho - asymptotic_rho(n)) <= 3.0)
    yield ("monotonicity", enumerate(_monotonicity_cases(max_leaves)),
           lambda case: _monotone(*case))
    yield ("newick-round-trip",
           enumerate(_round_trip_samples(trees, max_leaves)), _round_trips)


def _first_event(cases, check, share: int, shares: int):
    """(position, raised, text) of the first case of cases whose position is
    share mod shares and that fails, or raises when shares > 1; None when
    every such case holds.  text is the ``_case_text`` of a failing case.
    With one share a raise propagates, as a check outside any share would."""
    for position, case in cases:
        if position % shares != share:
            continue
        try:
            holds = check(case)
        except AssertionError:
            # a failed internal check refutes the case; an AncestralError
            # (a missed convergence) is not a refutation and exits 2 in main
            holds = False
        except Exception:
            if shares == 1:
                raise
            return position, True, ""
        if not holds:
            return position, False, _case_text(case)
    return None


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


_MAX_SHARES = 4  # the most shares verify-all deals its cases into


def _share_count() -> int:
    """How many shares verify-all deals the cases of its suites into: one
    per CPU this process may run on, at most _MAX_SHARES, and one where
    os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_SHARES)


def _receive(reader):
    """The next event a worker sent on reader, one marshal record.  A worker
    that ended before or while sending it reads as a raise before every
    case, so that its suite is checked again in one share."""
    try:
        return marshal.load(reader)
    except EOFError:
        return -1, True, ""


def _reap(workers: list) -> None:
    """Stop and reap every (pid, reader) worker of workers, which ends empty."""
    while workers:
        import signal  # only a run with workers loads it

        pid, reader = workers.pop()
        reader.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _start_workers(workers: list, trees, max_leaves: int, shares: int) -> None:
    """Fork a worker for each of shares 1 to shares - 1 and append its
    (pid, reader) to workers.  A worker checks its share of every suite
    over the corpus trees and sends the first event of each over a pipe,
    one marshal record each; it writes nothing else and ends in os._exit.
    When a fork fails, the workers started are reaped and workers ends
    empty."""
    for share in range(1, shares):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            # no room for another process: check in one share
            os.close(read_fd)
            os.close(write_fd)
            _reap(workers)
            return
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb", buffering=0) as out:
                    for _, cases, check in _suites(trees, max_leaves):
                        marshal.dump(_first_event(cases, check, share, shares),
                                     out)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        workers.append((pid, open(read_fd, "rb")))


def _verify_all(max_leaves: int) -> int:
    """Print each suite's verdict over the corpus of max_leaves, in order,
    and return verify-all's exit code.  This process checks share 0 of
    every suite and reads the first event of each other share from its
    worker; the earliest event decides.  A suite whose earliest event is a
    raise is checked again here in one share, and so is every later one:
    the raise then reaches main as it would without shares."""
    # a corpus over the cap is refused here, before any worker starts
    trees = _corpus(max_leaves)
    workers = []
    sys.stdout.flush()  # no worker inherits output still to be written
    try:
        _start_workers(workers, trees, max_leaves, _share_count())
        shares = len(workers) + 1
        code = 0
        for name, cases, check in _suites(trees, max_leaves):
            if shares > 1:
                cases = list(cases)  # read again if a share raises
                events = [_first_event(cases, check, 0, shares),
                          *(_receive(reader) for _, reader in workers)]
                event = min((e for e in events if e is not None),
                            default=None)
                if event is not None and event[1]:
                    _reap(workers)
                    shares = 1
            if shares == 1:
                event = _first_event(cases, check, 0, 1)
            if event is not None:
                code = 1
                print(f"{name}: VIOLATED")
                print(f"{name}: fails on {event[2]}", file=sys.stderr)
            else:
                print(f"{name}: VERIFIED")
        return code
    finally:
        _reap(workers)
