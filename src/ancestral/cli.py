"""Command-line front end: it parses arguments and prints.

A well-formed line (a command followed only by its own flags, each at most
once, with values that their types and choices accept) is read straight
from ``_COMMANDS`` and the flag tables.  Every other line goes to argparse,
which is imported only then: it builds the help texts and the usage errors
from the same tables.

Every subcommand is a pure function of its arguments, one row of
``_COMMANDS``: fixed orderings and fixed float formatting (12 significant
digits) make repeated runs byte-identical.  All but verify-all print one
text block or one JSON line per case; verify-all prints one line per row
of ``suites``, which only it imports.  The --class names of ``search`` and
the claims of its --check are rows of ``enumeration``'s class table; this
module only words their errors.  Exit codes: 0 success/verified, 1
violated/counterexample (verify-all then names each violated suite's
first failing case on stderr), 2 usage error.
"""

from __future__ import annotations

import gc
import io
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Optional

from . import enumeration
from .ancestral_matrices import (ancestral_matrix, matrix_text,
                                 path_incidence_matrix)
from .bounds_theorems import bound_report
from .caterpillar_analysis import (
    asymptotic_rho,
    caterpillar_charpoly,
    trig_spectral_radius,
)
from .errors import AncestralError, InvalidParameter
from .exact_charpoly import char_poly
from .newick_io import parse_newick, serialize_newick
from .path_collections import count_by_edge_states
from .spectral import eigenvalue_one_certificate, eigenvalues, spectral_radius
from .tree_core import RootedTree, binary_caterpillar, generate, parse_spec
from .tree_ops import OpKind, OpSpec, apply_op

if TYPE_CHECKING:
    import argparse

# What the imports above built lives as long as the process, so the cyclic
# collector need not scan it again: without this, the first collection of
# the older generations during a command walks every module's objects,
# about 1 ms of a 10 ms search.
gc.freeze()

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
    # only --json reads json, so a plain query does not import it
    import json

    print(json.dumps(_jsonable(payload), separators=(", ", ": ")))


def _trees_from_args(args) -> list[RootedTree]:
    if args.newick is not None:
        return [parse_newick(args.newick)]
    if args.file is not None:
        # drop the byte-order mark some editors save; stripping it costs
        # less than importing the utf-8-sig codec
        text = Path(args.file).read_text(encoding="utf-8").removeprefix("\ufeff")
        trees = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                trees.append(parse_newick(line))
            except AncestralError as exc:
                raise InvalidParameter(f"line {number}: {exc}") from exc
        if not trees:
            raise InvalidParameter(f"no trees in {args.file}")
        return trees
    return [generate(args.gen)]


def _write_block(lines, blank: bool) -> None:
    """Write each of lines with its newline to stdout, after a blank line
    when blank is set, in chunks of about io.DEFAULT_BUFFER_SIZE characters:
    one write per chunk rather than two per line, which matters when stdout
    is unbuffered, and never the whole block as one string."""
    write = sys.stdout.write
    chunk, size = ([""], 1) if blank else ([], 0)
    for line in lines:
        chunk.append(line)
        size += len(line) + 1
        if size >= io.DEFAULT_BUFFER_SIZE:
            chunk.append("")
            write("\n".join(chunk))
            chunk, size = [], 0
    if chunk:
        chunk.append("")
        write("\n".join(chunk))


def _per_case(cases, compute, as_json, as_text, holds=lambda result: True):
    """Handler that runs compute(case, args) on each case of cases(args) and
    prints each result at once: as_json(result) as one JSON line, or the
    lines of as_text(result) as a block, with a blank line between blocks.
    A block goes out in chunks of about io.DEFAULT_BUFFER_SIZE characters,
    and all of it before the next case is computed.  Exits 1 when some
    result does not hold."""
    def handler(args) -> int:
        code = 0
        for i, case in enumerate(cases(args)):
            result = compute(case, args)
            if args.json:
                _emit_json(as_json(result))
            else:
                _write_block(as_text(result), i > 0)
            if not holds(result):
                code = 1
        return code
    return handler


_BITS = ("0", "1")


def _rows_text(rows) -> Iterator[str]:
    """The lines of a 0/1 matrix, each entry read from a token table, made
    one at a time as they are written."""
    return (" ".join([_BITS[x] for x in row]) for row in rows)


_BOUND_LINES = (
    ("avg_ad<=rho", "avg_ad"),
    ("rho<=max_ad", "max_ad"),
    ("tw_bound<=rho", "tw_bound"),
    ("height<=rho", "height"),
    ("delta_bound<=rho", "delta"),
)


def _bounds_json(rep) -> dict:
    return {
        "rho": rep.rho,
        "avg_ad": rep.avg_ad,
        "max_ad": rep.max_ad,
        "tw_bound": rep.tw_bound,
        "height": rep.height_bound,
        "delta_bound": rep.delta_bound,
        "satisfied": rep.satisfied,
        "all_satisfied": rep.all_satisfied,
    }


def _bounds_text(rep) -> list[str]:
    return [
        f"rho={_fmt(rep.rho)}",
        f"avg_ad={rep.avg_ad}",
        f"max_ad={rep.max_ad}",
        f"tw_bound={rep.tw_bound}",
        f"height={rep.height_bound}",
        f"delta_bound={rep.delta_bound}",
        *(f"{label}: {'SATISFIED' if rep.satisfied[key] else 'VIOLATED'}"
          for label, key in _BOUND_LINES),
    ]


def _caterpillar(n: int, args) -> dict:
    poly = caterpillar_charpoly(n)
    numeric = spectral_radius(binary_caterpillar(n)).rho
    return {"n": n, "coefficients": poly.highest_first(),
            "trig_rho": trig_spectral_radius(n).rho if n >= 3 else None,
            "numeric_rho": numeric, "asymptotic": asymptotic_rho(n)}


def _caterpillar_text(res: dict) -> list[str]:
    trig = res["trig_rho"]
    return ["coefficients=" + " ".join(str(c) for c in res["coefficients"]),
            f"trig_rho={'n/a' if trig is None else _fmt(trig)}",
            f"numeric_rho={_fmt(res['numeric_rho'])}",
            f"asymptotic={_fmt(res['asymptotic'])}"]


def _one_tree(args) -> list[RootedTree]:
    trees = _trees_from_args(args)
    if len(trees) != 1:
        raise InvalidParameter("transform expects exactly one tree")
    return trees


# the flags each operation reads besides --path, by argparse dest
_OP_FLAGS = {OpKind.BRANCH_SHIFT: ("branch",), OpKind.STAR_SHIFT: ("leaf",),
             OpKind.LEAF_SWAP: ("branch", "leaf")}


def _transform(tree: RootedTree, args) -> dict:
    kind = OpKind(args.op)
    for dest in ("branch", "leaf"):
        given = getattr(args, dest) is not None
        if given != (dest in _OP_FLAGS[kind]):
            raise InvalidParameter(f"--op {args.op} "
                                   f"{'does not read' if given else 'needs'} --{dest}")
    after = apply_op(tree, OpSpec(kind, args.path, args.branch, args.leaf))
    return {"newick": serialize_newick(after),
            "rho_before": spectral_radius(tree).rho,
            "rho_after": spectral_radius(after).rho}


def _class_names(names) -> str:
    """The --class names given, as 'an outdegrees: or dary:'."""
    *rest, last = [f"{name}:" for name in names]
    text = f"{', '.join(rest)} or {last}" if rest else last
    return ("an " if text[0] in "aeiou" else "a ") + text


def _search_class(args) -> list[tuple]:
    """The one (class, claim) case of a search: the class must be of a
    --class name that --check makes a claim about."""
    (build, *_, claims), params = parse_spec(args.klass, enumeration._CLASSES,
                                             "class")
    cls = build(*params)
    if args.check not in claims:
        rows = enumeration._CLASSES.items()
        if claims:
            needed = _class_names(name for name, row in rows
                                  if args.check in row[-1])
            raise InvalidParameter(f"--check {args.check} needs {needed} class")
        searched = _class_names(name for name, row in rows if row[-1])
        name = args.klass.partition(":")[0].strip()
        raise InvalidParameter(f"search takes {searched} class, not {name}:")
    return [(cls, args.check)]


def _search_text(rep) -> list[str]:
    if rep.holds:
        return [f"VERIFIED rho_max={_fmt(rep.rho_max)}"]
    return [f"COUNTEREXAMPLE rho_max={_fmt(rep.rho_max)} "
            f"rho_claimed={_fmt(rep.rho_claimed)} "
            f"argmax={serialize_newick(rep.argmax)}"]


def _cmd_verify_all(args) -> int:
    # only verify-all runs the suites, so no other command compiles them
    from . import suites

    code = 0
    for name, cases, check in suites._suites(args.max_leaves):
        for case in cases:
            try:
                holds = check(case)
            except AssertionError:
                # a failed internal check refutes the case; an AncestralError
                # (a missed convergence) is not a refutation and exits 2 in main
                holds = False
            if not holds:
                code = 1
                print(f"{name}: VIOLATED")
                print(f"{name}: fails on {suites._case_text(case)}",
                      file=sys.stderr)
                break
        else:
            print(f"{name}: VERIFIED")
    return code


def _type_error(message: str) -> Exception:
    """The error a flag's type raises on a bad value.  Only argparse reports
    it, so argparse is imported here and not for a well-formed line."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_between(low: int, high: Optional[int] = None):
    """An argparse type for an integer of at least low and, when high is
    given, at most high."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _type_error(f"not an integer: {text!r}") from None
        if value < low:
            raise _type_error(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise _type_error(f"must be at most {high}, got {value}")
        return value
    return parse


# caterpillar_charpoly makes n steps of O(n) big-integer work on O(n)-bit
# coefficients, so its cost grows faster than n^2: on one Xeon core, 0.5 s
# at n = 1,000 and 2.7 s at n = 2,000
_CATERPILLAR_MAX_N = 2000


def _vertex_path(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _type_error(
            f"not a comma-separated list of vertices: {text!r}") from None


_FLAGS = {
    "--json": dict(action="store_true", help="JSON output"),
    "--n": dict(type=_int_between(1, _CATERPILLAR_MAX_N), required=True,
                help=f"number of leaves, 1 to {_CATERPILLAR_MAX_N}"),
    "--op": dict(required=True, choices=sorted(kind.value for kind in OpKind),
                 help="operation kind"),
    "--path": dict(type=_vertex_path, required=True,
                   help="comma-separated vertex path v1,...,vk"),
    "--branch": dict(
        type=int, help="shifted branch root, or w1 for a leaf swap"),
    "--leaf": dict(
        type=int, help="kept child u for a star shift, or w2 for a leaf swap"),
    "--class": dict(dest="klass", required=True,
                    help="tree class, e.g. outdegrees:3,2,2 or dary:3,7 or "
                         "vertices-leaves:7,3 or series-reduced:5"),
    "--check": dict(required=True, choices=list(dict.fromkeys(
        check for row in enumeration._CLASSES.values() for check in row[-1])),
                    help="which extremal family to test"),
    "--gen": dict(required=True, help="family spec, e.g. dary:3,2"),
    # the monotonicity suite draws trees of 3 to max_leaves + 1 vertices
    "--max-leaves": dict(type=_int_between(2), default=7, metavar="N",
                         help="size bound, at least 2: the corpus is every "
                              "tree with at most N+1 vertices, not N leaves"),
}


# the flag name "source" in a command's row stands for exactly one of these
_SOURCE = {
    "--newick": dict(help="tree as a Newick string"),
    "--file": dict(help="UTF-8 file, one Newick tree per line"),
    "--gen": dict(help="family spec, e.g. broom:2,3"),
}


def _add_flags(sub, names) -> None:
    """Give sub the flags it reads, and no others."""
    for name in names:
        if name == "source":
            group = sub.add_mutually_exclusive_group(required=True)
            for flag, spec in _SOURCE.items():
                group.add_argument(flag, **spec)
        else:
            sub.add_argument(name, **_FLAGS[name])


# every subcommand: name, help, flags, handler.  All but verify-all run
# through _per_case: cases, compute step, JSON form, text form and, where
# one exists, the verdict
_COMMANDS = (
    ("matrix", "print the ancestral matrix", ("source", "--json"),
     _per_case(_trees_from_args,
               lambda tree, args: (ancestral_matrix(tree) if args.json
                                   else matrix_text(tree)),
               lambda mat: {"n": mat.n, "rows": mat.rows},
               lambda lines: lines)),
    ("incidence", "print the path incidence matrix", ("source", "--json"),
     _per_case(_trees_from_args,
               lambda tree, args: path_incidence_matrix(tree),
               lambda inc: {"n": inc.n, "m": inc.m, "rows": inc.rows},
               lambda inc: _rows_text(inc.rows))),
    ("charpoly", "exact characteristic polynomial", ("source", "--json"),
     _per_case(_trees_from_args, lambda tree, args: char_poly(tree),
               lambda poly: {"monic_degree": poly.degree,
                             "gamma": poly.gamma()},
               lambda poly: [" ".join(str(c) for c in poly.highest_first())])),
    ("spectrum", "numeric eigenvalues, descending",
     ("source", "--json"),
     _per_case(_trees_from_args, lambda tree, args: eigenvalues(tree),
               lambda eig: {"eigenvalues": list(eig)},
               lambda eig: [_fmt(v) for v in eig])),
    ("bounds", "spectral-radius bounds report",
     ("source", "--json"),
     _per_case(_trees_from_args, lambda tree, args: bound_report(tree),
               _bounds_json, _bounds_text, lambda rep: rep.all_satisfied)),
    ("certificate", "eigenvalue-1 multiplicity and basis",
     ("source", "--json"),
     _per_case(_trees_from_args,
               lambda tree, args: eigenvalue_one_certificate(tree),
               lambda cert: {"multiplicity": cert.multiplicity,
                             "basis": [list(b) for b in cert.basis]},
               lambda cert: [f"multiplicity={cert.multiplicity}",
                             *(str(tuple(b)) for b in cert.basis)])),
    ("collections", "edge-disjoint path collection counts",
     ("source", "--json"),
     _per_case(_trees_from_args,
               lambda tree, args: count_by_edge_states(tree),
               lambda res: {"counts": list(res.counts), "total": res.total},
               lambda res: [*(f"counts[{k}]={c}"
                              for k, c in enumerate(res.counts)),
                            f"total={res.total}"])),
    ("caterpillar", "binary caterpillar charpoly and spectral radius",
     ("--n", "--json"),
     _per_case(lambda args: [args.n], _caterpillar, lambda res: res,
               _caterpillar_text)),
    ("transform", "apply a tree operation",
     ("source", "--json", "--op", "--path", "--branch", "--leaf"),
     _per_case(_one_tree, _transform, lambda res: res,
               lambda res: [f"newick={res['newick']}",
                            f"rho_before={_fmt(res['rho_before'])}",
                            f"rho_after={_fmt(res['rho_after'])}"])),
    ("search", "exhaustive extremality check",
     ("--class", "--check", "--json"),
     _per_case(_search_class,
               lambda case, args: enumeration.verify_claim(*case),
               lambda rep: {"verified": rep.holds, "rho_max": rep.rho_max,
                            "rho_claimed": rep.rho_claimed,
                            "argmax": serialize_newick(rep.argmax)},
               _search_text, lambda rep: rep.holds)),
    ("gen", "emit a family tree as Newick", ("--gen", "--json"),
     _per_case(lambda args: [generate(args.gen)], lambda tree, args: tree,
               lambda tree: {"newick": serialize_newick(tree),
                             "parents": list(tree.parent)},
               lambda tree: [serialize_newick(tree)])),
    ("verify-all", "run every theorem suite up to a size bound",
     ("--max-leaves",), _cmd_verify_all),
)


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser for argv.  When argv starts with a command, only that
    command's subparser is registered, as only it can run; otherwise all
    are, for the top-level help and the missing or invalid command error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors print one line, like every other error, and exit 2."""

        def error(self, message: str):
            self.exit(2, f"error: {message}\n")

    parser = _Parser(
        prog="ancestral",
        description="Ancestral matrices of rooted trees: exact charpolys, "
                    "spectra, bounds, and theorem checkers.")
    subs = parser.add_subparsers(dest="command", required=True)
    named = [row for row in _COMMANDS if argv and row[0] == argv[0]]
    for name, help_text, flags, handler in named or _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        _add_flags(sub, flags)
        sub.set_defaults(func=handler)
    return parser


def _read_flags(row, tokens: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives for the tokens after row's command, or
    None unless they are well formed: only the command's own flags, each at
    most once, each value passing its type and choices, with every required
    flag and exactly one source given."""
    name, _, names, handler = row
    flags = {}
    for flag in names:
        flags.update(_SOURCE if flag == "source" else {flag: _FLAGS[flag]})
    given = {}
    rest = iter(tokens)
    for flag in rest:
        spec = flags.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(rest, "-")
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:
            # argparse runs the same type on the same text, and reports
            # whatever it raises
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given
           for flag, spec in flags.items()):
        return None
    if "source" in names and sum(flag in given for flag in _SOURCE) != 1:
        return None
    args = SimpleNamespace(command=name, func=handler)
    for flag, spec in flags.items():
        store_true = spec.get("action") == "store_true"
        default = spec.get("default", False if store_true else None)
        setattr(args, spec.get("dest", flag[2:].replace("-", "_")),
                given.get(flag, default))
    return args


def parse_args(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """The arguments of argv.  A well-formed line, a command followed by
    its own flags, is read straight from the flag table; any other line,
    help included, goes to argparse, which alone words help and usage
    errors and gives the same namespace for a well-formed line."""
    for row in _COMMANDS:
        if argv and row[0] == argv[0]:
            args = _read_flags(row, argv[1:])
            if args is not None:
                return args
    return build_parser(argv).parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (AncestralError, OSError, ValueError) as exc:
        # a stream whose reader has gone, as in `2>&1 | head -1`, is pointed
        # at os.devnull, so that the flush at exit cannot fail as well
        for stream, text in ((sys.stdout, ""), (sys.stderr, f"error: {exc}\n")):
            try:
                print(text, end="", file=stream, flush=True)
            except OSError:
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), stream.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
