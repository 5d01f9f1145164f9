"""Command-line front end.

Every subcommand is a pure function of its arguments: fixed orderings and
fixed float formatting (12 significant digits) make repeated runs
byte-identical.  Exit codes: 0 success/verified, 1 violated/counterexample,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import enumeration
from .ancestral_matrices import (
    ancestral_matrix,
    block_reconstruction,
    gram_check,
    path_incidence_matrix,
)
from .bounds_theorems import (
    BOUND_TOL,
    bound_report,
    delta_equality_holds,
    is_complete_dary,
    leaf_distance_sum,
)
from .caterpillar_analysis import (
    asymptotic_rho,
    caterpillar_charpoly,
    chebyshev_form_check,
    trig_spectral_radius,
)
from .errors import AncestralError, InvalidParameter
from .exact_charpoly import char_poly, dary_determinant_check
from .newick_io import parse_newick, serialize_newick
from .path_collections import DEFAULT_BUDGET, count_collections
from .spectral import (
    DEFAULT_TOL,
    eigen_decompose,
    eigenvalue_one_certificate,
    spectral_radius,
)
from .tree_core import (
    RootedTree,
    binary_caterpillar,
    broom,
    generate,
    greedy_caterpillar,
)
from .tree_ops import OpKind, OpSpec, apply_op, valid_specs, witness_leaves

_BIG = 2 ** 53


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".12g")


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _emit_json(payload) -> None:
    print(json.dumps(_jsonable(payload), separators=(", ", ": ")))


def _trees_from_args(args) -> list[RootedTree]:
    if args.newick is not None:
        return [parse_newick(args.newick)]
    if args.file is not None:
        text = Path(args.file).read_text(encoding="utf-8")
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise InvalidParameter(f"no trees in {args.file}")
        return [parse_newick(line) for line in lines]
    return [generate(args.gen)]


def _print_blocks(blocks: list[list[str]]) -> None:
    for i, block in enumerate(blocks):
        if i:
            print()
        for line in block:
            print(line)


# subcommand handlers; each returns the process exit code

def _cmd_matrix(args) -> int:
    blocks = []
    for tree in _trees_from_args(args):
        mat = ancestral_matrix(tree)
        if args.json:
            _emit_json({"n": mat.n, "rows": mat.rows})
        else:
            blocks.append([" ".join(str(x) for x in row) for row in mat.rows])
    _print_blocks(blocks)
    return 0


def _cmd_incidence(args) -> int:
    blocks = []
    for tree in _trees_from_args(args):
        inc = path_incidence_matrix(tree)
        if args.json:
            _emit_json({"n": inc.n, "m": inc.m, "rows": inc.rows})
        else:
            blocks.append([" ".join(str(x) for x in row) for row in inc.rows])
    _print_blocks(blocks)
    return 0


def _cmd_charpoly(args) -> int:
    blocks = []
    for tree in _trees_from_args(args):
        poly = char_poly(tree)
        highest = poly.highest_first()
        if args.json:
            gamma = [c if k % 2 == 0 else -c for k, c in enumerate(highest)]
            _emit_json({"monic_degree": poly.degree, "gamma": gamma})
        else:
            blocks.append([" ".join(str(c) for c in highest)])
    _print_blocks(blocks)
    return 0


def _cmd_spectrum(args) -> int:
    blocks = []
    for tree in _trees_from_args(args):
        spec = eigen_decompose(ancestral_matrix(tree), args.tol)
        if args.json:
            _emit_json({"eigenvalues": list(spec.eigenvalues)})
        else:
            blocks.append([_fmt(v) for v in spec.eigenvalues])
    _print_blocks(blocks)
    return 0


_BOUND_LINES = (
    ("avg_ad<=rho", "avg_ad"),
    ("rho<=max_ad", "max_ad"),
    ("tw_bound<=rho", "tw_bound"),
    ("height<=rho", "height"),
    ("delta_bound<=rho", "delta"),
)


def _cmd_bounds(args) -> int:
    code = 0
    blocks = []
    for tree in _trees_from_args(args):
        rep = bound_report(tree, eig_tol=args.tol)
        if not rep.all_satisfied:
            code = 1
        if args.json:
            _emit_json({
                "rho": rep.rho,
                "avg_ad": rep.avg_ad,
                "max_ad": rep.max_ad,
                "tw_bound": rep.tw_bound,
                "height": rep.height_bound,
                "delta_bound": rep.delta_bound,
                "satisfied": {key: rep.margins[key] >= -BOUND_TOL
                              for _, key in _BOUND_LINES},
                "all_satisfied": rep.all_satisfied,
            })
            continue
        lines = [
            f"rho={_fmt(rep.rho)}",
            f"avg_ad={rep.avg_ad}",
            f"max_ad={rep.max_ad}",
            f"tw_bound={rep.tw_bound}",
            f"height={rep.height_bound}",
            f"delta_bound={rep.delta_bound}",
        ]
        for label, key in _BOUND_LINES:
            verdict = "SATISFIED" if rep.margins[key] >= -BOUND_TOL else "VIOLATED"
            lines.append(f"{label}: {verdict}")
        blocks.append(lines)
    _print_blocks(blocks)
    return code


def _cmd_certificate(args) -> int:
    blocks = []
    for tree in _trees_from_args(args):
        cert = eigenvalue_one_certificate(tree)
        if args.json:
            _emit_json({"multiplicity": cert.multiplicity,
                        "basis": [list(b) for b in cert.basis]})
        else:
            lines = [f"multiplicity={cert.multiplicity}"]
            lines.extend(str(tuple(b)) for b in cert.basis)
            blocks.append(lines)
    _print_blocks(blocks)
    return 0


def _cmd_collections(args) -> int:
    blocks = []
    for tree in _trees_from_args(args):
        result = count_collections(tree, budget=args.budget)
        if args.json:
            _emit_json({"counts": list(result.counts), "total": result.total})
        else:
            lines = [f"counts[{k}]={c}" for k, c in enumerate(result.counts)]
            lines.append(f"total={result.total}")
            blocks.append(lines)
    _print_blocks(blocks)
    return 0


def _cmd_caterpillar(args) -> int:
    n = args.n
    poly = caterpillar_charpoly(n)
    numeric = spectral_radius(binary_caterpillar(n), args.tol).rho
    trig = trig_spectral_radius(n).rho if n >= 3 else None
    if args.json:
        _emit_json({
            "n": n,
            "coefficients": poly.highest_first(),
            "trig_rho": trig,
            "numeric_rho": numeric,
            "asymptotic": asymptotic_rho(n),
        })
        return 0
    print("coefficients=" + " ".join(str(c) for c in poly.highest_first()))
    print(f"trig_rho={'n/a' if trig is None else _fmt(trig)}")
    print(f"numeric_rho={_fmt(numeric)}")
    print(f"asymptotic={_fmt(asymptotic_rho(n))}")
    return 0


_OPS = {kind.value: kind for kind in OpKind}


def _cmd_transform(args) -> int:
    trees = _trees_from_args(args)
    if len(trees) != 1:
        raise InvalidParameter("transform expects exactly one tree")
    tree = trees[0]
    kind = _OPS[args.op]
    path = tuple(int(tok) for tok in args.path.split(","))
    spec = OpSpec(kind=kind, path=path, branch_root=args.branch, leaf=args.leaf)
    after = apply_op(tree, spec)
    rho_before = spectral_radius(tree, args.tol).rho
    rho_after = spectral_radius(after, args.tol).rho
    if args.json:
        _emit_json({"newick": serialize_newick(after),
                    "rho_before": rho_before, "rho_after": rho_after})
        return 0
    print(f"newick={serialize_newick(after)}")
    print(f"rho_before={_fmt(rho_before)}")
    print(f"rho_after={_fmt(rho_after)}")
    return 0


def _cmd_gen(args) -> int:
    tree = generate(args.gen)
    if args.json:
        _emit_json({"newick": serialize_newick(tree),
                    "parents": list(tree.parent)})
        return 0
    print(serialize_newick(tree))
    return 0


def _parse_class(spec: str) -> enumeration.TreeClass:
    name, _, rest = spec.partition(":")
    try:
        params = [int(tok) for tok in rest.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidParameter(f"bad integer in class spec {spec!r}") from exc
    name = name.strip()
    if name == "vertices" and len(params) == 1:
        return enumeration.by_vertex_count(params[0])
    if name == "leaves" and len(params) == 2:
        return enumeration.by_leaf_count(params[0], params[1])
    if name == "vertices-leaves" and len(params) == 2:
        return enumeration.by_vertices_and_leaves(params[0], params[1])
    if name == "outdegrees" and params:
        return enumeration.by_outdegree_sequence(params)
    if name == "series-reduced" and len(params) == 1:
        return enumeration.series_reduced(params[0])
    if name == "dary" and len(params) == 2:
        return enumeration.dary_by_leaves(params[0], params[1])
    raise InvalidParameter(f"unknown class spec {spec!r}")


def _claimed_for_check(check: str, cls: enumeration.TreeClass) -> RootedTree:
    if check == "greedy":
        if cls.kind != "by-outdegree-sequence":
            raise InvalidParameter("--check greedy needs an outdegrees: class")
        return greedy_caterpillar([s for s in cls.params if s > 0])
    if check == "broom":
        if cls.kind != "by-vertices-and-leaves":
            raise InvalidParameter("--check broom needs a vertices-leaves: class")
        n_vertices, n_leaves = cls.params
        return broom(n_vertices - n_leaves - 1, n_leaves)
    if cls.kind != "series-reduced":
        raise InvalidParameter(
            "--check binary-caterpillar needs a series-reduced: class")
    return binary_caterpillar(cls.params[0])


def _cmd_search(args) -> int:
    cls = _parse_class(args.klass)
    claimed = _claimed_for_check(args.check, cls)
    report = enumeration.verify_extremal(cls, claimed, tol=args.tol,
                                         eig_tol=args.tol)
    if args.json:
        _emit_json({"verified": report.holds,
                    "rho_max": report.rho_max,
                    "rho_claimed": report.rho_claimed,
                    "argmax": serialize_newick(report.argmax)})
        return 0 if report.holds else 1
    if report.holds:
        print(f"VERIFIED rho_max={_fmt(report.rho_max)}")
        return 0
    print(f"COUNTEREXAMPLE rho_max={_fmt(report.rho_max)} "
          f"rho_claimed={_fmt(report.rho_claimed)} "
          f"argmax={serialize_newick(report.argmax)}")
    return 1


# verify-all: one deterministic pass/fail line per theorem

def _corpus(max_leaves: int) -> list[RootedTree]:
    trees = []
    for n in range(1, max_leaves + 2):
        trees.extend(enumeration.enumerate_class(enumeration.by_vertex_count(n)))
    return trees


def _suite_gram(corpus, tol, budget) -> bool:
    return all(gram_check(t) for t in corpus)


def _suite_blocks(corpus, tol, budget) -> bool:
    return all(block_reconstruction(t) == ancestral_matrix(t).rows
               for t in corpus)


def _suite_eigenvalue_one(corpus, tol, budget) -> bool:
    for t in corpus:
        if t.n_vertices == 1:
            continue
        cert = eigenvalue_one_certificate(t)
        eig = eigen_decompose(ancestral_matrix(t), tol).eigenvalues
        numeric = sum(1 for v in eig if abs(v - 1.0) < 1e-6)
        if numeric != cert.multiplicity:
            return False
    return True


def _suite_bounds(corpus, tol, budget) -> bool:
    return all(bound_report(t, eig_tol=tol).all_satisfied
               for t in corpus if t.n_vertices > 1)


def _suite_delta_equality(corpus, tol, budget) -> bool:
    return all(delta_equality_holds(t, eig_tol=tol) == is_complete_dary(t)
               for t in corpus if t.n_vertices > 1)


def _suite_trace(corpus, tol, budget) -> bool:
    for t in corpus:
        highest = char_poly(t).highest_first()
        trace = -highest[1] if len(highest) > 1 else 0
        if trace != leaf_distance_sum(t, t.root):
            return False
    return True


def _suite_collections(corpus, tol, budget) -> bool:
    for t in corpus:
        poly = char_poly(t)
        highest = poly.highest_first()
        gamma = [c if k % 2 == 0 else -c for k, c in enumerate(highest)]
        result = count_collections(t, budget=budget)
        if list(result.counts) != gamma:
            return False
        sign = 1 if t.n_leaves % 2 == 0 else -1
        if result.total != sign * poly(-1):
            return False
    return True


def _suite_dary_det(corpus, tol, budget) -> bool:
    for t in corpus:
        degs = {len(c) for c in t.children if c}
        for d in (2, 3):
            if degs <= {d} and not dary_determinant_check(t, d).equal:
                return False
    return True


def _suite_broom(corpus, tol, budget, max_leaves: int) -> bool:
    for n_vertices in range(3, max_leaves + 2):
        for n_leaves in range(2, n_vertices):
            cls = enumeration.by_vertices_and_leaves(n_vertices, n_leaves)
            claimed = broom(n_vertices - n_leaves - 1, n_leaves)
            report = enumeration.verify_extremal(cls, claimed, tol=1e-6,
                                                 eig_tol=tol)
            expected = n_leaves * (n_vertices - n_leaves - 1) + 1
            if not report.holds or abs(report.rho_max - expected) > 1e-6:
                return False
    return True


def _suite_greedy(corpus, tol, budget, max_leaves: int) -> bool:
    for n_vertices in range(2, max_leaves + 2):
        for seq in enumeration._partitions(n_vertices - 1):
            cls = enumeration.by_outdegree_sequence(seq)
            report = enumeration.verify_extremal(cls, greedy_caterpillar(seq),
                                                 tol=1e-7, eig_tol=tol)
            if not report.holds:
                return False
    return True


def _suite_series_reduced(corpus, tol, budget, max_leaves: int) -> bool:
    for n in range(2, max_leaves + 1):
        cls = enumeration.series_reduced(n)
        report = enumeration.verify_extremal(cls, binary_caterpillar(n),
                                             tol=1e-7, eig_tol=tol)
        if not report.holds:
            return False
    return True


def _suite_caterpillar_recursion(corpus, tol, budget, max_leaves: int) -> bool:
    for n in range(1, max_leaves + 1):
        if caterpillar_charpoly(n).coeffs != char_poly(binary_caterpillar(n)).coeffs:
            return False
    return True


def _suite_chebyshev(corpus, tol, budget, max_leaves: int) -> bool:
    for n in range(2, min(max_leaves, 8) + 1):
        for j in range(10):
            x = Fraction(2) + Fraction(j, 5)
            if not chebyshev_form_check(n, x):
                return False
    return True


def _suite_trig(corpus, tol, budget, max_leaves: int) -> bool:
    for n in range(3, max(max_leaves, 8) + 1):
        numeric = spectral_radius(binary_caterpillar(n), tol).rho
        if abs(trig_spectral_radius(n).rho - numeric) > 1e-6 * numeric:
            return False
    return True


def _suite_asymptotic(corpus, tol, budget, max_leaves: int) -> bool:
    return all(abs(trig_spectral_radius(n).rho - asymptotic_rho(n)) <= 3.0
               for n in range(10, 10 * max_leaves + 1))


def _suite_monotonicity(corpus, tol, budget, max_leaves: int) -> bool:
    rng = random.Random(20260814)
    for kind in OpKind:
        done = 0
        attempts = 0
        while done < 60 and attempts < 4000:
            attempts += 1
            t = enumeration.random_tree(rng.randint(3, max_leaves + 1), rng)
            specs = valid_specs(t, kind)
            if not specs:
                continue
            spec = specs[rng.randrange(len(specs))]
            sr = spectral_radius(t, tol)
            after = spectral_radius(apply_op(t, spec), tol).rho
            if after < sr.rho - 1e-9:
                return False
            pos = {v: i for i, v in enumerate(t.leaf_order)}
            witnessed = all(sr.perron[pos[v]] > 1e-6
                            for v in witness_leaves(t, spec))
            if witnessed and after < sr.rho + 1e-9:
                return False
            done += 1
    return True


def _suite_round_trip(corpus, tol, budget, max_leaves: int) -> bool:
    rng = random.Random(1205)
    samples = list(corpus)
    samples.extend([
        generate("star:3"), generate("broom:2,3"), generate("path-broom:1,4"),
        generate("binary-caterpillar:5"), generate("dary:2,3"),
        generate("greedy:3,2,2"), generate("star-plus-path:3,4"),
    ])
    samples.extend(enumeration.random_tree(rng.randint(1, 2 * max_leaves), rng)
                   for _ in range(200))
    for t in samples:
        text = serialize_newick(t)
        back = parse_newick(text)
        if back.parent_list() != t.parent_list() or serialize_newick(back) != text:
            return False
    return True


_SUITES = (
    ("gram-identity", _suite_gram, False),
    ("block-structure", _suite_blocks, False),
    ("eigenvalue-one", _suite_eigenvalue_one, False),
    ("bounds", _suite_bounds, False),
    ("delta-equality", _suite_delta_equality, False),
    ("trace-identity", _suite_trace, False),
    ("collection-coefficients", _suite_collections, False),
    ("dary-determinant", _suite_dary_det, False),
    ("broom-extremality", _suite_broom, True),
    ("greedy-extremality", _suite_greedy, True),
    ("series-reduced-extremality", _suite_series_reduced, True),
    ("caterpillar-recursion", _suite_caterpillar_recursion, True),
    ("chebyshev-closed-form", _suite_chebyshev, True),
    ("trig-spectral-radius", _suite_trig, True),
    ("asymptotic-window", _suite_asymptotic, True),
    ("monotonicity", _suite_monotonicity, True),
    ("newick-round-trip", _suite_round_trip, True),
)


def _cmd_verify_all(args) -> int:
    corpus = _corpus(args.max_leaves)
    code = 0
    for name, func, wants_size in _SUITES:
        try:
            if wants_size:
                ok = func(corpus, args.tol, args.budget, args.max_leaves)
            else:
                ok = func(corpus, args.tol, args.budget)
        except (AncestralError, AssertionError):
            ok = False
        if not ok:
            code = 1
        print(f"{name}: {'VERIFIED' if ok else 'VIOLATED'}")
    return code


def _add_source_flags(sub, with_gen_only: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    if not with_gen_only:
        group.add_argument("--newick", help="tree as a Newick string")
        group.add_argument("--file", help="UTF-8 file, one Newick tree per line")
    group.add_argument("--gen", help="family spec, e.g. broom:2,3")


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, like every other error, and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _positive_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def _max_leaves(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    # the monotonicity suite draws trees of 3 to max_leaves + 1 vertices
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _add_common_flags(sub) -> None:
    sub.add_argument("--json", action="store_true", help="JSON output")
    sub.add_argument("--tol", type=_positive_tol, default=DEFAULT_TOL,
                     help="numeric tolerance, positive (default 1e-10)")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="enumeration budget for collections")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ancestral",
        description="Ancestral matrices of rooted trees: exact charpolys, "
                    "spectra, bounds, and theorem checkers.")
    subs = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("matrix", _cmd_matrix, "print the ancestral matrix"),
        ("incidence", _cmd_incidence, "print the path incidence matrix"),
        ("charpoly", _cmd_charpoly, "exact characteristic polynomial"),
        ("spectrum", _cmd_spectrum, "numeric eigenvalues, descending"),
        ("bounds", _cmd_bounds, "spectral-radius bounds report"),
        ("certificate", _cmd_certificate, "eigenvalue-1 multiplicity and basis"),
        ("collections", _cmd_collections, "edge-disjoint path collection counts"),
    ]
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        _add_source_flags(sub)
        _add_common_flags(sub)
        sub.set_defaults(func=func)

    sub = subs.add_parser("caterpillar",
                          help="binary caterpillar charpoly and spectral radius")
    sub.add_argument("--n", type=int, required=True, help="number of leaves")
    _add_common_flags(sub)
    sub.set_defaults(func=_cmd_caterpillar)

    sub = subs.add_parser("transform", help="apply a tree operation")
    _add_source_flags(sub)
    _add_common_flags(sub)
    sub.add_argument("--op", required=True, choices=sorted(_OPS),
                     help="operation kind")
    sub.add_argument("--path", required=True,
                     help="comma-separated vertex path v1,...,vk")
    sub.add_argument("--branch", type=int,
                     help="shifted branch root, or w1 for a leaf swap")
    sub.add_argument("--leaf", type=int,
                     help="kept child u for a star shift, or w2 for a leaf swap")
    sub.set_defaults(func=_cmd_transform)

    sub = subs.add_parser("search", help="exhaustive extremality check")
    sub.add_argument("--class", dest="klass", required=True,
                     help="tree class, e.g. outdegrees:3,2,2 or "
                          "vertices-leaves:7,3 or series-reduced:5")
    sub.add_argument("--check", required=True,
                     choices=["greedy", "broom", "binary-caterpillar"],
                     help="which extremal family to test")
    _add_common_flags(sub)
    sub.set_defaults(func=_cmd_search)

    sub = subs.add_parser("gen", help="emit a family tree as Newick")
    sub.add_argument("--gen", required=True, help="family spec, e.g. dary:3,2")
    _add_common_flags(sub)
    sub.set_defaults(func=_cmd_gen)

    sub = subs.add_parser("verify-all",
                          help="run every theorem suite up to a size bound")
    sub.add_argument("--max-leaves", type=_max_leaves, default=7,
                     help="leaf-count bound for the enumerated corpus, "
                          "at least 2")
    _add_common_flags(sub)
    sub.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AncestralError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
