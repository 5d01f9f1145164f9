"""Front-end behavior: frozen text output, JSON forms, exit codes."""

import contextlib
import io
import json
import marshal
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ancestral
from ancestral import (ExtremalReport, binary_caterpillar, broom, build_tree,
                       by_vertices_and_leaves, caterpillar_charpoly,
                       parse_newick, serialize_newick, series_reduced, star,
                       star_plus_path)
from ancestral import (bounds_theorems, cli, exact_charpoly,
                       path_collections, spectral, suites)
from ancestral.errors import NoConvergence
from ancestral.tree_core import DENSE_CAP
from ancestral.tree_ops import OpKind, valid_specs

from helpers import EXAMPLE_C_ROWS, EXAMPLE_GAMMA

EX = "((,),(,,(,)));"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv) -> str:
    """The one stderr line of a command that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    return err


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "--newick", EX)
    assert code == 0
    expected = "\n".join(" ".join(str(x) for x in row) for row in EXAMPLE_C_ROWS)
    assert out == expected + "\n"


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--gen", "star:3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def test_matrix_blocks_before_a_refusal_stay_printed(capsys, tmp_path):
    # the first tree's block is written in full before the second tree,
    # a star past the dense cap, is refused
    leaves = math.isqrt(DENSE_CAP) + 1
    path = tmp_path / "trees.nwk"
    path.write_text("(,);\n(" + "," * (leaves - 1) + ");\n")
    code, out, err = run(capsys, "matrix", "--file", str(path))
    assert code == 2
    assert out == "1 0\n0 1\n"
    assert err == (f"error: ancestral matrix of {leaves} x {leaves} entries "
                   f"is past the cap {DENSE_CAP}\n")


def test_matrix_refusal_after_a_streamed_block(capsys, tmp_path):
    # a first block of several chunks streams out whole; the star past the
    # dense cap is refused at its first row, so nothing of it is written,
    # not even the blank line before it
    leaves = math.isqrt(DENSE_CAP) + 1
    path = tmp_path / "trees.nwk"
    path.write_text("(" + "," * 99 + ");\n(" + "," * (leaves - 1) + ");\n")
    code, out, err = run(capsys, "matrix", "--file", str(path))
    assert code == 2
    assert len(out) > io.DEFAULT_BUFFER_SIZE
    assert out == "".join(" ".join("1" if j == i else "0" for j in range(100))
                          + "\n" for i in range(100))
    assert err.startswith("error: ancestral matrix of") and err.count("\n") == 1


class _CountingOut(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", [("spectrum", "--gen", "dary:2,9"),
                                  ("matrix", "--gen", "binary-caterpillar:100")],
                         ids=["spectrum", "matrix"])
def test_text_blocks_are_written_in_chunks(monkeypatch, argv):
    # one write per chunk of about io.DEFAULT_BUFFER_SIZE characters, not
    # two per line, so an unbuffered stdout makes few system calls
    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(list(argv)) == 0
    size = len(out.getvalue().encode())
    assert out.writes <= -(-size // io.DEFAULT_BUFFER_SIZE) + 1
    assert out.writes < out.getvalue().count("\n")


def test_incidence_text(capsys):
    # parsing renumbers in preorder, so the edge columns differ from the
    # parent-list fixture even though the Gram product is the same matrix
    code, out, _ = run(capsys, "incidence", "--newick", EX)
    assert code == 0
    assert out == (
        "1 1 0 0 0 0 0 0 0\n"
        "1 0 1 0 0 0 0 0 0\n"
        "0 0 0 1 1 0 0 0 0\n"
        "0 0 0 1 0 1 0 0 0\n"
        "0 0 0 1 0 0 1 1 0\n"
        "0 0 0 1 0 0 1 0 1\n"
    )


def test_charpoly_text(capsys):
    code, out, _ = run(capsys, "charpoly", "--newick", EX)
    assert code == 0
    assert out == "1 -14 71 -172 215 -134 33\n"


def test_charpoly_json(capsys):
    code, out, _ = run(capsys, "charpoly", "--newick", EX, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"monic_degree": 6, "gamma": list(EXAMPLE_GAMMA)}


def test_charpoly_json_big_integers_become_strings(capsys):
    code, out, _ = run(capsys, "charpoly", "--gen", "binary-caterpillar:30",
                       "--json")
    assert code == 0
    gamma = json.loads(out)["gamma"]
    assert any(isinstance(g, str) for g in gamma)
    signed = [int(g) if k % 2 == 0 else -int(g) for k, g in enumerate(gamma)]
    assert tuple(signed) == caterpillar_charpoly(30).highest_first()


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "--gen", "broom:2,3")
    assert code == 0
    assert out == "7\n1\n1\n"


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--gen", "broom:2,3", "--json")
    assert code == 0
    values = json.loads(out)["eigenvalues"]
    assert values == pytest.approx([7.0, 1.0, 1.0], abs=1e-9)


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "--newick", EX)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"rho={4 + math.sqrt(5):.12g}"
    assert lines[1:6] == [
        "avg_ad=5",
        "max_ad=7",
        "tw_bound=5",
        "height=3",
        "delta_bound=5/2",
    ]
    assert lines[6:] == [
        "avg_ad<=rho: SATISFIED",
        "rho<=max_ad: SATISFIED",
        "tw_bound<=rho: SATISFIED",
        "height<=rho: SATISFIED",
        "delta_bound<=rho: SATISFIED",
    ]


def test_bounds_on_an_exact_tie_of_two_routes(capsys):
    # rho = 5 on both branches, by Laguerre's method and on the exact route
    code, out, _ = run(capsys, "bounds", "--newick", "((,,(())),(((()))));")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho=5"
    assert lines[6:] == BOUNDS_SATISFIED.splitlines()


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--newick", EX, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["avg_ad"] == "5"
    assert payload["delta_bound"] == "5/2"
    assert payload["max_ad"] == 7
    assert payload["height"] == 3
    assert payload["all_satisfied"] is True
    assert all(payload["satisfied"].values())


def test_certificate_text(capsys):
    code, out, _ = run(capsys, "certificate", "--gen", "star:4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "multiplicity=4"
    assert len(lines) == 5
    assert all(line.startswith("(") for line in lines[1:])


def test_collections_text(capsys):
    code, out, _ = run(capsys, "collections", "--newick", EX)
    assert code == 0
    expected = [f"counts[{k}]={c}" for k, c in enumerate(EXAMPLE_GAMMA)]
    expected.append("total=640")
    assert out.splitlines() == expected


def test_collections_budget_error(capsys):
    # collections counts by edge states, which needs no budget, so the flag
    # is retired and is a usage error like any flag a command does not read
    err = usage_error(capsys, "collections", "--gen", "star:30",
                      "--budget", "10")
    assert err == "error: unrecognized arguments: --budget 10\n"


def test_collections_of_a_thousand_leaf_star():
    # the count is one pass over the tree, with no recursion per leaf; run
    # in a fresh process so that any traceback would reach its stderr
    src = str(Path(ancestral.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ancestral.cli import main; sys.exit(main())",
         "collections", "--gen", "star:1100"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    expected = [f"counts[{k}]={math.comb(1100, k)}" for k in range(1101)]
    assert proc.stdout.splitlines() == expected + [f"total={2 ** 1100}"]


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("shared", [True, False],
                         ids=["both-streams", "stdout-only"])
def test_a_closed_output_pipe_exits_2(unbuffered, shared):
    # 180 kB of rows, more than a pipe holds, go into a pipe whose reader
    # leaves after the first line, as `| head -1` does; with `2>&1` stderr
    # goes there too, and its message is lost with no traceback
    src = str(Path(ancestral.__file__).resolve().parents[1])
    with subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from ancestral.cli import main; sys.exit(main())",
             "matrix", "--gen", "star:300"],
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, text=True,
            stderr=subprocess.STDOUT if shared else subprocess.PIPE) as proc:
        assert proc.stdout.readline() == "1" + " 0" * 299 + "\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        if not shared:
            assert proc.stderr.read() == "error: [Errno 32] Broken pipe\n"


def test_caterpillar_small_text(capsys):
    code, out, _ = run(capsys, "caterpillar", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "coefficients=1 -2 1",
        "trig_rho=n/a",
        "numeric_rho=1",
        f"asymptotic={8 / math.pi ** 2:.12g}",
    ]
    code, out, _ = run(capsys, "caterpillar", "--n", "2", "--json")
    assert code == 0
    assert out == ('{"n": 2, "coefficients": [1, -2, 1], "trig_rho": null, '
                   '"numeric_rho": 1.0, '
                   f'"asymptotic": {8 / math.pi ** 2:.12g}}}\n')


def test_caterpillar_json(capsys):
    code, out, _ = run(capsys, "caterpillar", "--n", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5
    assert tuple(payload["coefficients"]) == caterpillar_charpoly(5).highest_first()
    assert payload["trig_rho"] == pytest.approx(payload["numeric_rho"], rel=1e-6)


def test_transform_star_shift(capsys):
    code, out, _ = run(capsys, "transform", "--gen", "star:4",
                       "--op", "star-shift", "--path", "0", "--leaf", "1")
    assert code == 0
    assert out.splitlines() == ["newick=(,(,,));", "rho_before=1", "rho_after=4"]
    code, out, _ = run(capsys, "transform", "--gen", "star:4", "--op",
                       "star-shift", "--path", "0", "--leaf", "1", "--json")
    assert code == 0
    assert out == ('{"newick": "(,(,,));", "rho_before": 1.0, '
                   '"rho_after": 4.0}\n')


def test_gen_text_and_json(capsys):
    code, out, _ = run(capsys, "gen", "--gen", "dary:2,2")
    assert code == 0
    assert out == "((,),(,));\n"
    code, out, _ = run(capsys, "gen", "--gen", "dary:2,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"newick": "((,),(,));",
                       "parents": [None, 0, 1, 1, 0, 4, 4]}


def test_search_verified(capsys):
    code, out, _ = run(capsys, "search", "--class", "vertices-leaves:7,3",
                       "--check", "broom")
    assert code == 0
    assert out == "VERIFIED rho_max=10\n"
    code, out, _ = run(capsys, "search", "--class", "vertices-leaves:7,3",
                       "--check", "broom", "--json")
    assert code == 0
    assert out == ('{"verified": true, "rho_max": 10.0, "rho_claimed": 10.0, '
                   '"argmax": "((((,,))));"}\n')


def test_search_of_a_deep_class(capsys):
    # the one tree of the class is the path of 400 vertices
    code, out, _ = run(capsys, "search", "--class", "vertices-leaves:400,1",
                       "--check", "broom")
    assert code == 0
    assert out == "VERIFIED rho_max=399\n"


def test_search_of_a_deeper_class_needs_no_recursion(capsys):
    # the path of 3,000 vertices: its branches are drawn through 2,999 keys
    code, out, err = run(capsys, "search", "--class", "vertices-leaves:3000,1",
                         "--check", "broom")
    assert (code, out, err) == (0, "VERIFIED rho_max=2999\n", "")


def test_search_builds_only_the_contenders_of_a_large_class(capsys):
    # 414,116 trees: only the branches whose row bound reaches 73 are built
    code, out, err = run(capsys, "search", "--class", "vertices-leaves:18,8",
                         "--check", "broom")
    assert (code, out, err) == (0, "VERIFIED rho_max=73\n", "")


@pytest.mark.parametrize("klass, check", [
    ("vertices-leaves:1200,1199", "broom"),
    ("outdegrees:1200", "greedy"),
])
def test_search_of_a_wide_class(capsys, klass, check):
    # the one tree of the class is the star of 1199 leaves
    code, out, _ = run(capsys, "search", "--class", klass, "--check", check)
    assert code == 0
    assert out == "VERIFIED rho_max=1\n"


@pytest.mark.parametrize("klass, check", [
    ("dary:3,1", "greedy"),
    ("outdegrees:", "greedy"),
    ("vertices-leaves:1,1", "broom"),
])
def test_search_of_the_single_vertex_class(capsys, klass, check):
    # the one tree of the class is the single vertex, and its claim too
    code, out, err = run(capsys, "search", "--class", klass, "--check", check)
    assert (code, out, err) == (0, "VERIFIED rho_max=0\n", "")


@pytest.mark.parametrize("spec", ["greedy:", "broom:-1,1"])
def test_gen_has_no_single_vertex_caterpillar(capsys, spec):
    code, out, err = run(capsys, "gen", "--gen", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("dary, outdegrees", [
    ("dary:3,7", "outdegrees:3,3,3"),
    ("dary:2,8", "outdegrees:2,2,2,2,2,2,2"),
])
def test_search_of_a_dary_class_is_its_outdegree_class(capsys, dary, outdegrees,
                                                       as_json):
    # a d-ary class with n leaves is the outdegree class of d taken
    # (n - 1)/(d - 1) times, and greedy claims the same caterpillar for both
    flags = ["--check", "greedy"] + (["--json"] if as_json else [])
    got = run(capsys, "search", "--class", dary, *flags)
    want = run(capsys, "search", "--class", outdegrees, *flags)
    assert got == want
    assert got[0] == 0 and got[2] == ""


@pytest.mark.parametrize("klass", ["vertices:5", "leaves:3,6"])
def test_search_names_the_classes_it_takes(capsys, klass):
    code, out, err = run(capsys, "search", "--class", klass, "--check", "greedy")
    name = klass.partition(":")[0]
    assert (code, out) == (2, "")
    assert err == ("error: search takes an outdegrees:, dary:, "
                   f"vertices-leaves: or series-reduced: class, not {name}:\n")


def test_search_names_the_classes_of_its_check(capsys):
    code, out, err = run(capsys, "search", "--class", "vertices-leaves:7,3",
                         "--check", "greedy")
    assert (code, out, err) == (2, "", "error: --check greedy needs an "
                                "outdegrees: or dary: class\n")
    code, out, err = run(capsys, "search", "--class", "dary:3,7",
                         "--check", "broom")
    assert (code, out, err) == (2, "", "error: --check broom needs a "
                                "vertices-leaves: class\n")


@pytest.mark.parametrize("command, spec, why", [
    (["search", "--check", "broom", "--class"], "vertices:x", "bad integer"),
    (["search", "--check", "broom", "--class"], "nope:3", "unknown name"),
    (["search", "--check", "broom", "--class"], "vertices-leaves:1,2,3",
     "takes 2"),
    (["gen", "--gen"], "star:x", "bad integer"),
    (["gen", "--gen"], "nope:3", "unknown name"),
    (["gen", "--gen"], "broom:1", "takes 2"),
    # an empty token is a bad integer, not a dropped one
    (["search", "--check", "greedy", "--class"], "outdegrees:3,,2",
     "bad integer"),
    (["search", "--check", "greedy", "--class"], "outdegrees:,", "bad integer"),
    (["gen", "--gen"], "broom:,2,3", "bad integer"),
    (["gen", "--gen"], "dary:2,,3", "bad integer"),
    (["gen", "--gen"], "broom:2,3,", "bad integer"),
], ids=["class-bad-integer", "class-unknown-name", "class-wrong-arity",
        "family-bad-integer", "family-unknown-name", "family-wrong-arity",
        "class-empty-inner", "class-only-commas", "family-empty-leading",
        "family-empty-inner", "family-empty-trailing"])
def test_bad_spec_names_the_spec(capsys, command, spec, why):
    # class and family specs share one parser
    code, out, err = run(capsys, *command, spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(spec) in err and why in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("klass, check, named", [
    ("vertices-leaves:3,5", "broom", "vertices-leaves:3,5"),
    ("series-reduced:0", "binary-caterpillar", "series-reduced:0"),
    ("dary:3,8", "greedy", "dary:3,8"),
], ids=["vertices-leaves", "series-reduced", "dary"])
def test_search_names_an_empty_class(capsys, klass, check, named):
    # no claimed tree exists for these parameters; the class is named first
    code, out, err = run(capsys, "search", "--class", klass, "--check", check)
    assert (code, out, err) == (2, "", f"error: class {named} is empty\n")


def test_search_of_an_oversized_class_exits_2(capsys):
    code, out, err = run(capsys, "search", "--class", "vertices-leaves:26,13",
                         "--check", "broom")
    assert code == 2
    assert out == ""
    assert err == "error: vertices-leaves:26,13 exceeds cap 1000000\n"


def test_refusal_of_a_class_with_many_params_is_one_short_line(capsys):
    code, out, err = run(capsys, "search", "--class",
                         "outdegrees:" + ",".join(map(str, range(20, 0, -1))),
                         "--check", "greedy")
    assert (code, out) == (2, "")
    assert err == ("error: outdegrees:20,19,18,17,16,15,14,13,… 20 params "
                   "exceeds cap 1000000\n")
    assert len(err.encode()) < 120


@pytest.mark.parametrize("klass, check, keys", [
    ("vertices-leaves:14,6", "broom", [("pairs", (14, 6))]),
    ("outdegrees:3,3,2,2,2,1,1", "greedy",
     [("outdegrees", (3, 3, 2, 2, 2, 1, 1) + (0,) * 8)]),
], ids=["vertices-leaves", "outdegrees"])
def test_search_counts_each_class_key_once(capsys, monkeypatch, klass, check,
                                           keys):
    # the empty-class check and the search share one count of the class;
    # an earlier test may have counted it already, in the module's cache
    cli.enumeration._counted.cache_clear()
    counted = []
    for kind, row in list(cli.enumeration._KINDS.items()):
        def count(key, cap, kind=kind, exact=row.count):
            counted.append((kind, key))
            return exact(key, cap)
        monkeypatch.setitem(cli.enumeration._KINDS, kind,
                            row._replace(count=count))
    code, out, err = run(capsys, "search", "--class", klass, "--check", check)
    assert (code, err) == (0, "") and out.startswith("VERIFIED rho_max=")
    assert counted == keys


def test_search_derives_each_key_bound_once(capsys, monkeypatch):
    # _leads and _Branches.above read one cached bound per key; an earlier
    # test may have filled both caches already
    cli.enumeration._bound.cache_clear()
    cli.enumeration._leads.cache_clear()
    asked = []
    row = cli.enumeration._KINDS["outdegrees"]

    def bound(key, exact=row.bound):
        asked.append(key)
        return exact(key)
    monkeypatch.setitem(cli.enumeration._KINDS, "outdegrees",
                        row._replace(bound=bound))
    code, out, err = run(capsys, "search", "--class", "outdegrees:3,3,2,2,2,1,1",
                         "--check", "greedy")
    assert (code, out, err) == (0, "VERIFIED rho_max=33.701338839\n", "")
    assert len(asked) == len(set(asked)) == 35


def test_search_checks_residuals_only_of_the_branches_it_solves(monkeypatch):
    # with a tie window and a residual tolerance of 1e-300, only one branch
    # of 14,6 can reach the maximum, the broom's, and it takes the exact
    # route, which has no float residual to miss that bound
    monkeypatch.setattr(cli.enumeration, "TIE_WINDOW", 1e-300)
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    report = cli.enumeration.verify_extremal(
        by_vertices_and_leaves(14, 6), broom(7, 6))
    assert report.holds and report.rho_max == 43
    # the series-reduced trees of 5 leaves solve branches numerically, and
    # their residuals miss that bound
    with pytest.raises(NoConvergence):
        cli.enumeration.verify_extremal(series_reduced(5),
                                        binary_caterpillar(5))


def test_search_counterexample(capsys, monkeypatch):
    fake = ExtremalReport(holds=False, argmax=star(2), rho_max=9.0,
                          rho_claimed=3.0)
    monkeypatch.setattr(cli.enumeration, "verify_extremal",
                        lambda *a, **k: fake)
    code, out, _ = run(capsys, "search", "--class", "vertices-leaves:7,3",
                       "--check", "broom")
    assert code == 1
    assert out == "COUNTEREXAMPLE rho_max=9 rho_claimed=3 argmax=(,);\n"
    code, out, _ = run(capsys, "search", "--class", "vertices-leaves:7,3",
                       "--check", "broom", "--json")
    assert code == 1
    assert out == ('{"verified": false, "rho_max": 9.0, "rho_claimed": 3.0, '
                   '"argmax": "(,);"}\n')


def test_file_input_multiple_blocks(capsys, tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text("(,);\n\n(,,);\n", encoding="utf-8")
    code, out, _ = run(capsys, "matrix", "--file", str(path))
    assert code == 0
    assert out == "1 0\n0 1\n\n1 0 0\n0 1 0\n0 0 1\n"


def test_file_with_no_trees(capsys, tmp_path):
    path = tmp_path / "empty.nwk"
    path.write_text("\n   \n", encoding="utf-8")
    code, _, err = run(capsys, "matrix", "--file", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_file_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.nwk"
    path.write_bytes(b"\xef\xbb\xbf(,);\n")
    assert run(capsys, "charpoly", "--file", str(path)) == (0, "1 -2 1\n", "")


@pytest.mark.parametrize("text, line", [
    ("(,);\n((,)\n", 2),
    ("(,);\n\n  \n((,)\n(,,);\n", 4),
], ids=["second", "after-blank-lines"])
def test_file_parse_error_names_the_line(capsys, tmp_path, text, line):
    # physical line numbers, blank lines counted; nothing is printed first
    path = tmp_path / "bad.nwk"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: line {line}: at position 4: expected ',' or ')'\n"


def test_bad_newick_exits_2(capsys):
    code, _, err = run(capsys, "matrix", "--newick", "((,)")
    assert code == 2
    assert err.startswith("error:")


def test_bad_path_integer_exits_2(capsys):
    for path in ("x", "abc", "0,,1"):
        err = usage_error(capsys, "transform", "--gen", "star:3",
                          "--op", "star-shift", "--path", path, "--leaf", "1")
        assert err.startswith("error: argument --path:")


@pytest.mark.parametrize("newick, op, flag, value", [
    ("((,),(,));", "branch-shift", "--branch", "99"),
    ("((,),(,),);", "branch-shift", "--branch", "-1"),
    ("((,),(,),);", "leaf-swap", "--leaf", "99"),
    ("((,),(,),);", "leaf-swap", "--leaf", "-2"),
])
def test_transform_rejects_out_of_range_vertices(capsys, newick, op, flag, value):
    # a negative index must not wrap around to a real vertex
    extra = ["--branch", "1"] if flag == "--leaf" else []
    code, out, err = run(capsys, "transform", "--newick", newick, "--op", op,
                         "--path", "0,4", flag, value, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("newick, op, given, missing", [
    ("((,(,)),(,));", "branch-shift", [], "--branch"),
    ("((,(,)),(,));", "leaf-swap", [], "--branch"),
    ("((,(,)),(,));", "leaf-swap", ["--branch", "6"], "--leaf"),
    ("(,,);", "star-shift", [], "--leaf"),
], ids=["branch-shift", "leaf-swap", "leaf-swap-with-branch", "star-shift"])
def test_transform_names_a_missing_flag(capsys, newick, op, given, missing):
    path = "0" if op == "star-shift" else "0,1,3"
    code, out, err = run(capsys, "transform", "--newick", newick, "--op", op,
                         "--path", path, *given)
    assert code == 2
    assert out == ""
    assert err == f"error: --op {op} needs {missing}\n"


@pytest.mark.parametrize("op", [kind.value for kind in OpKind])
def test_transform_rejects_a_flag_its_op_does_not_read(capsys, op):
    newick = "((,(,)),(,));"
    spec = valid_specs(parse_newick(newick), OpKind(op))[0]
    flags = suites._case_text(spec).split()
    code, out, err = run(capsys, "transform", "--newick", newick, *flags)
    assert code == 0 and out.startswith("newick=") and err == ""
    # a leaf swap reads both flags, so only the other ops have one to reject
    for unread in [flag for flag in ("--branch", "--leaf") if flag not in flags]:
        code, out, err = run(capsys, "transform", "--newick", newick,
                             *flags, unread, "99")
        assert (code, out, err) == (
            2, "", f"error: --op {op} does not read {unread}\n")


@pytest.mark.parametrize("path", ["0,99", "0,1"])
def test_star_shift_path_must_be_one_vertex_of_the_star(capsys, path):
    code, out, err = run(capsys, "transform", "--gen", "star:3",
                         "--op", "star-shift", "--path", path, "--leaf", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_missing_source_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix"])
    assert exc.value.code == 2


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_main_prints_every_help_text(capsys):
    parser = cli.build_parser()
    full = _subparsers(parser)
    assert len(full) == len(cli._COMMANDS)
    # main prints each command's help, and the top-level help, unchanged
    helps = [([], parser.format_help()),
             *(([name], sub.format_help()) for name, sub in full.items())]
    assert len(helps) == 13
    for command, text in helps:
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (text, ""), command


_NAMES = tuple(name for name, *_ in cli._COMMANDS)
_FLAG_TOKENS = (*cli._FLAGS, *cli._SOURCE, "-h", "--help", "--",
                "--gen=star:3", "--cla", "--che")
_VALUES = ("star:3", "vertices-leaves:7,3", "broom", "star-shift", "0",
           "0,1", "3", "2001", "-7", "-", "", "x")


# a value that each flag taking one accepts
_GOOD = {"--class": "vertices-leaves:7,3", "--check": "broom",
         "--op": "star-shift", "--path": "0", "--branch": "0", "--leaf": "0",
         "--n": "3", "--max-leaves": "3", "--gen": "star:3", "--newick": "x",
         "--file": "x"}


@st.composite
def _command_lines(draw) -> list[str]:
    """A command's well-formed line, its flags in any order, then up to
    two edits, each a token replaced, inserted or deleted."""
    name, _, entries, _ = draw(st.sampled_from(cli._COMMANDS))
    pieces = []
    for entry in entries:
        if entry == "source":
            flag = draw(st.sampled_from(tuple(cli._SOURCE)))
        elif cli._FLAGS[entry].get("required") or draw(st.booleans()):
            flag = entry
        else:
            continue
        pieces.append([flag, _GOOD[flag]] if flag in _GOOD else [flag])
    argv = [name, *(token for piece in draw(st.permutations(pieces))
                    for token in piece)]
    tokens = st.sampled_from(_NAMES + _FLAG_TOKENS + _VALUES)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert":
            argv.insert(at, draw(tokens))
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            else:
                argv[at] = draw(tokens)
    return argv


def _parse_outcome(parse, argv):
    """The arguments parse(argv) gives, or its exit code, with what it
    printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(_command_lines())
@example(["search", "--class", "vertices-leaves:7,3", "--check", "broom"])
@example(["transform", "--json", "--gen", "star:3", "--op", "star-shift",
          "--path", "0", "--leaf", "0"])
@example(["caterpillar", "--n", "3"])
@example(["verify-all"])
@example(["gen", "--gen", "star:3", "--gen", "star:3"])
@example(["search", "--cla", "vertices-leaves:7,3", "--che", "broom"])
@example(["matrix", "--newick", "x", "--gen", "star:3"])
@example(["--help"])
@example([])
def test_the_flag_table_reads_a_line_as_argparse_does(argv):
    table = _parse_outcome(cli.parse_args, argv)
    oracle = _parse_outcome(cli.build_parser().parse_args, argv)
    # equal namespaces hold the same func: functions compare by identity
    assert table == oracle


def test_a_parser_without_a_command_lists_every_command(capsys):
    err = usage_error(capsys, "nosuch")
    assert err.startswith("error: argument command: invalid choice: 'nosuch' ")
    assert all(repr(name) in err for name, *_ in cli._COMMANDS)


def test_verify_all_smoke(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-leaves", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert lines[0] == "gram-identity: VERIFIED"
    assert all(line.endswith(": VERIFIED") for line in lines)


def test_verify_all_derives_each_per_tree_quantity_once(capsys, monkeypatch):
    # the counting wrappers below count in this process: check in one share
    monkeypatch.setattr(suites, "_share_count", lambda: 1)
    calls = {"char_poly": 0, "_spectral_radius": 0}

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(suites, "char_poly")
    counted(bounds_theorems, "_spectral_radius")
    code, out, _ = run(capsys, "verify-all", "--max-leaves", "5")
    assert code == 0
    corpus = len(suites._corpus(5))
    # one polynomial per corpus tree, shared by three suites, plus one per
    # caterpillar of the recursion suite; one rho per tree of more than one
    # vertex, shared by the bounds and delta-equality suites
    assert calls == {"char_poly": corpus + 5, "_spectral_radius": corpus - 1}


def test_verify_all_derives_each_per_tree_quantity_once_in_two_shares(
        capsys, monkeypatch, tmp_path):
    # each process appends one line per call, so the counts add up across
    # the shares: a tree's memos are derived only in the share that holds it
    monkeypatch.setattr(suites, "_share_count", lambda: 2)

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            with open(tmp_path / name, "a", encoding="utf-8") as log:
                log.write(f"{os.getpid()}\n")
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(suites, "char_poly")
    counted(bounds_theorems, "_spectral_radius")
    code, out, _ = run(capsys, "verify-all", "--max-leaves", "5")
    assert code == 0
    logs = {name: (tmp_path / name).read_text("utf-8").split()
            for name in ("char_poly", "_spectral_radius")}
    calls = {name: len(pids) for name, pids in logs.items()}
    corpus = len(suites._corpus(5))
    assert calls == {"char_poly": corpus + 5, "_spectral_radius": corpus - 1}
    assert all(len(set(pids)) == 2 for pids in logs.values())


def test_dary_determinant_checks_each_dary_tree_at_its_d(monkeypatch):
    checked = []
    real = suites.dary_determinant_check

    def counted(tree, d):
        checked.append(d)
        return real(tree, d)
    monkeypatch.setattr(suites, "dary_determinant_check", counted)
    rows = suites._suites(suites._corpus(9), 9)
    cases, check = next((cases, check) for name, cases, check in rows
                        if name == "dary-determinant")
    assert all(check(t) for _, t in cases)
    # 18 trees of the 9-leaf corpus whose internal vertices share one
    # outdegree d >= 2, each at its d, and the single vertex at d = 2 and 3
    assert len(checked) == 20
    assert set(checked) == set(range(2, 10))


def _fold_without_a_term(tree, leaf, factor):
    """exact_charpoly._fold with one seeded fault: at a vertex with three
    children, the second child's A B_c term is dropped from B."""
    mul, add = exact_charpoly._poly_mul, exact_charpoly._poly_add
    pair = {}
    for v in reversed(tree.preorder):
        kids = tree.children[v]
        if not kids:
            pair[v] = leaf
            continue
        a, b_acc = pair.pop(kids[0])
        a_acc = factor(a, b_acc)
        for i, c in enumerate(kids[1:], 1):
            a, b = pair.pop(c)
            f = factor(a, b)
            if v != tree.root:
                b_acc = mul(b_acc, f)
                if (len(kids), i) != (3, 1):
                    b_acc = add(b_acc, mul(a_acc, b))
            a_acc = mul(a_acc, f)
        pair[v] = a_acc, b_acc
    return pair[tree.root][0]


def test_verify_all_sees_a_fault_in_the_fold(capsys, monkeypatch):
    # the d-ary values are read from the fold at a point, so the suite
    # still checks the fold that the polynomial is built by
    monkeypatch.setattr(exact_charpoly, "_fold", _fold_without_a_term)
    monkeypatch.setattr(path_collections, "_fold", _fold_without_a_term)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "7")
    assert code == 1
    assert {name for name, verdict in verdicts(out).items()
            if verdict == "VIOLATED"} == {"trace-identity", "dary-determinant"}
    assert err == ("trace-identity: fails on ((,,));\n"
                   "dary-determinant: fails on (,,(,,));\n")


def test_verify_all_sees_a_wrong_leaf_state_in_the_collection_counts(
        capsys, monkeypatch):
    # a leaf whose edge may carry no path, ([1], [1]) in place of
    # ([1], [0, 1]), in the fold of the collection counts alone
    fold = path_collections._fold
    monkeypatch.setattr(path_collections, "_fold",
                        lambda tree, leaf, factor: fold(tree, ([1], [1]), factor))
    code, out, err = run(capsys, "verify-all", "--max-leaves", "5")
    assert code == 1
    assert [name for name, verdict in verdicts(out).items()
            if verdict == "VIOLATED"] == ["collection-coefficients"]
    assert err == "collection-coefficients: fails on ();\n"


def _verify_all_in_shares(capsys, monkeypatch, shares: int):
    """Exit code, stdout and stderr of verify-all --max-leaves 5 checked in
    the given number of shares; no worker outlives it."""
    with monkeypatch.context() as patch:
        patch.setattr(suites, "_share_count", lambda: shares)
        outcome = run(capsys, "verify-all", "--max-leaves", "5")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome


def _by_position(outcomes: dict):
    """A check that, on the corpus tree at each position of outcomes, returns
    False or raises what outcomes gives there, and holds elsewhere."""
    corpus = [serialize_newick(t) for t in suites._corpus(5)]
    given = {corpus[p]: outcome for p, outcome in outcomes.items()}

    def check(tree, *rest):
        outcome = given.get(serialize_newick(tree), True)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return check


_RAISE = NoConvergence(1.0, 1e-10)


# the positions are of corpus trees, which three shares deal as position mod 3
@pytest.mark.parametrize("name, outcomes, expected", [
    ("gram_check", {}, (0, 17, "")),
    ("gram_check", {5: False, 7: False},
     (1, 17, "gram-identity: fails on {5}\n")),
    ("gram_check", {4: False, 6: _RAISE},
     (1, 17, "gram-identity: fails on {4}\n")),
    ("_collections_match", {4: _RAISE, 8: False},
     (2, 6, f"error: {_RAISE}\n")),
], ids=["green", "two-failures", "failure-before-raise", "raise-before-failure"])
def test_verify_all_prints_the_same_in_one_share_and_in_three(
        capsys, monkeypatch, name, outcomes, expected):
    monkeypatch.setattr(suites, name, _by_position(outcomes))
    one = _verify_all_in_shares(capsys, monkeypatch, 1)
    assert _verify_all_in_shares(capsys, monkeypatch, 3) == one
    code, out, err = one
    corpus = [serialize_newick(t) for t in suites._corpus(5)]
    assert (code, len(out.splitlines()), err) == (
        expected[0], expected[1], expected[2].format(*corpus))
    assert out.count(": VIOLATED\n") == (code == 1)


def test_verify_all_checks_again_the_suite_of_a_worker_that_ended(
        capsys, monkeypatch):
    # a worker that ends without sending its record leaves its suite to be
    # checked again here, in one share: the run reads as a green one
    parent = os.getpid()
    real = suites.gram_check

    def check(tree):
        if os.getpid() != parent:
            os._exit(3)
        return real(tree)
    monkeypatch.setattr(suites, "gram_check", check)
    one = _verify_all_in_shares(capsys, monkeypatch, 1)
    assert one[0] == 0
    assert _verify_all_in_shares(capsys, monkeypatch, 3) == one


def test_verify_all_checks_again_the_suite_of_a_torn_record(
        capsys, monkeypatch):
    # each worker fails a case, then writes the first half of its record
    # and ends: the torn record reads as a worker that ended, so the suite
    # is checked again here, in one share, where every case holds
    parent = os.getpid()
    real = suites.gram_check

    def check(tree):
        return os.getpid() == parent and real(tree)

    def torn(event, out):
        record = marshal.dumps(event)
        out.write(record[:len(record) // 2])
        os._exit(0)
    monkeypatch.setattr(suites, "gram_check", check)
    monkeypatch.setattr(suites.marshal, "dump", torn)
    one = _verify_all_in_shares(capsys, monkeypatch, 1)
    assert one[0] == 0
    assert _verify_all_in_shares(capsys, monkeypatch, 3) == one


def test_verify_all_without_a_fork_checks_in_one_share(capsys, monkeypatch):
    forks, real = [], os.fork

    def fork():
        if forks:
            raise BlockingIOError("no room for another process")
        forks.append(real())
        return forks[-1]
    monkeypatch.setattr(cli.os, "fork", fork)
    one = _verify_all_in_shares(capsys, monkeypatch, 1)
    assert one[0] == 0 and not forks
    assert _verify_all_in_shares(capsys, monkeypatch, 3) == one
    assert len(forks) == 1


def test_verify_all_reaps_its_workers_on_an_interrupt(capsys, monkeypatch):
    parent = os.getpid()

    def interrupted(tree):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return True
    monkeypatch.setattr(suites, "gram_check", interrupted)
    monkeypatch.setattr(suites, "_share_count", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify-all", "--max-leaves", "5"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def verdicts(out: str) -> dict:
    return dict(line.split(": ") for line in out.splitlines())


def test_verify_all_names_the_first_failing_tree(capsys, monkeypatch):
    bad = "(,(,));"
    assert bad in [serialize_newick(t) for t in suites._corpus(4)]
    monkeypatch.setattr(suites, "gram_check",
                        lambda t: serialize_newick(t) != bad)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "4")
    assert code == 1
    lines = verdicts(out)
    assert len(lines) == 17
    assert {name for name, verdict in lines.items()
            if verdict != "VERIFIED"} == {"gram-identity"}
    assert lines["gram-identity"] == "VIOLATED"
    assert err == f"gram-identity: fails on {bad}\n"


def test_verify_all_reads_an_assertion_as_violated(capsys, monkeypatch):
    def refuted(tree):
        raise AssertionError("blocks disagree")
    monkeypatch.setattr(suites, "block_reconstruction", refuted)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "2")
    assert code == 1
    assert verdicts(out)["block-structure"] == "VIOLATED"
    first = serialize_newick(suites._corpus(2)[0])
    assert err == f"block-structure: fails on {first}\n"


def test_verify_all_names_the_failing_class(capsys, monkeypatch):
    real = cli.enumeration.verify_extremal
    bad = series_reduced(3)

    def refuted(cls, claimed, **kwargs):
        report = real(cls, claimed, **kwargs)
        return report._replace(holds=False) if cls == bad else report
    monkeypatch.setattr(cli.enumeration, "verify_extremal", refuted)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "4")
    assert code == 1
    assert verdicts(out)["series-reduced-extremality"] == "VIOLATED"
    assert err == "series-reduced-extremality: fails on series-reduced:3\n"


def _descending_caterpillar(*outdegrees):
    """The greedy caterpillar with its outdegrees descending from the root,
    a tree of the same outdegree class."""
    parents, spine = [None], 0
    for d in sorted(outdegrees, reverse=True):
        parents.extend([spine] * d)
        spine = len(parents) - 1
    return build_tree(parents)


# a claimed tree of the class that is not extremal, and the first class of
# verify-all --max-leaves 5 on which it fails
@pytest.mark.parametrize("row, check, mutant, suite, spec", [
    ("outdegrees", "greedy", _descending_caterpillar, "greedy-extremality",
     "outdegrees:2,1"),
    ("vertices-leaves", "broom",
     lambda n, leaves: star_plus_path(leaves - 1, n - leaves),
     "broom-extremality", "vertices-leaves:4,2"),
    ("series-reduced", "binary-caterpillar", star,
     "series-reduced-extremality", "series-reduced:3"),
], ids=["greedy", "broom", "series-reduced"])
def test_search_and_verify_all_check_one_claim(capsys, monkeypatch, row, check,
                                               mutant, suite, spec):
    # both commands read the claim from the one class table, and verify-all
    # names the failing class by the spec that search reads
    monkeypatch.setitem(cli.enumeration._CLASSES[row][-1], check, mutant)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "5")
    assert code == 1
    assert [name for name, verdict in verdicts(out).items()
            if verdict == "VIOLATED"] == [suite]
    assert err == f"{suite}: fails on {spec}\n"
    code, out, _ = run(capsys, "search", "--class", spec, "--check", check)
    assert code == 1 and out.startswith("COUNTEREXAMPLE ")


def test_verify_all_names_a_failing_operation_as_transform_flags(
        capsys, monkeypatch):
    tree, spec = next(suites._monotonicity_cases(4))
    monkeypatch.setattr(suites, "_monotone", lambda tree, spec: False)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "4")
    assert code == 1
    assert verdicts(out)["monotonicity"] == "VIOLATED"
    prefix = f"monotonicity: fails on {serialize_newick(tree)} "
    assert err.startswith(prefix) and err.endswith("\n")
    flags = err[len(prefix):].split()
    assert flags[:2] == ["--op", spec.kind.value]
    code, out, _ = run(capsys, "transform", "--newick",
                       serialize_newick(tree), *flags)
    assert code == 0
    assert out.startswith("newick=")


def test_verify_all_counts_an_oversized_corpus_before_building_it(capsys):
    code, out, err = run(capsys, "verify-all", "--max-leaves", "17")
    assert code == 2
    assert out == ""
    assert err == "error: vertices:18 exceeds cap 1000000\n"
    assert 17 not in cli.enumeration._MEMO.get("vertices", {})


def test_verify_all_counts_the_series_reduced_class_before_building(
        capsys, monkeypatch):
    # the vertex count passes at 16 leaves and series_reduced(16) does not;
    # no class may be built before both are counted
    def built(cls):
        raise AssertionError(f"built {cls}")
    monkeypatch.setattr(cli.enumeration, "enumerate_class", built)
    code, out, err = run(capsys, "verify-all", "--max-leaves", "16")
    assert code == 2
    assert out == ""
    assert err == "error: series-reduced:16 exceeds cap 1000000\n"


@pytest.mark.parametrize("value", ["0", "1", "-3", "two"])
def test_verify_all_rejects_bad_max_leaves(capsys, value):
    err = usage_error(capsys, "verify-all", "--max-leaves", value)
    assert err.startswith("error: argument --max-leaves:")


@pytest.mark.parametrize("argv", [
    ["collections", "--gen", "star:3"],
    ["verify-all", "--max-leaves", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_budget_below_one_names_the_flag(capsys, argv, value):
    # --budget is retired: neither command enumerates collections, so the
    # flag is refused whatever its value, in one line that names it
    err = usage_error(capsys, *argv, "--budget", value)
    assert err == f"error: unrecognized arguments: --budget {value}\n"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "x"])
def test_tol_must_be_positive_and_finite(capsys, value):
    # --tol is retired: every command uses the library's residual tolerance
    # and tie window, so the flag is refused whatever its value
    err = usage_error(capsys, "spectrum", "--gen", "star:3", "--tol", value)
    assert err == f"error: unrecognized arguments: --tol {value}\n"


def test_missed_residual_reports_residual_and_bound(capsys, monkeypatch):
    # a solve held to 1e-300 misses its residual bound on EX's dense block
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    code, out, err = run(capsys, "spectrum", "--newick", EX)
    assert code == 2
    assert out == ""
    assert err.startswith("error: eigensolver residual ")
    assert "exceeds the bound" in err and "sweep" not in err


def test_deep_inputs_do_not_recurse(capsys, tmp_path):
    depth = 3000
    code, out, _ = run(capsys, "gen", "--gen", f"dary:1,{depth}")
    assert code == 0
    assert out == "(" * depth + ")" * depth + ";\n"
    path = tmp_path / "deep.nwk"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "charpoly", "--file", str(path))
    assert code == 0
    assert out == f"1 -{depth}\n"


THREE_TREES = "((,),(,,(,)));\n(,,);\n((,),);\n"

BOUNDS_SATISFIED = (
    "avg_ad<=rho: SATISFIED\n"
    "rho<=max_ad: SATISFIED\n"
    "tw_bound<=rho: SATISFIED\n"
    "height<=rho: SATISFIED\n"
    "delta_bound<=rho: SATISFIED\n"
)
ALL_TRUE = ('"satisfied": {"avg_ad": true, "max_ad": true, "tw_bound": true, '
            '"height": true, "delta": true}, "all_satisfied": true}\n')

# output of each per-tree command on THREE_TREES, text then JSON
THREE_TREE_OUTPUT = {
    "matrix": (
        "2 1 0 0 0 0\n1 2 0 0 0 0\n0 0 2 1 1 1\n0 0 1 2 1 1\n"
        "0 0 1 1 3 2\n0 0 1 1 2 3\n"
        "\n1 0 0\n0 1 0\n0 0 1\n"
        "\n2 1 0\n1 2 0\n0 0 1\n",
        '{"n": 6, "rows": [[2, 1, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0], '
        '[0, 0, 2, 1, 1, 1], [0, 0, 1, 2, 1, 1], [0, 0, 1, 1, 3, 2], '
        '[0, 0, 1, 1, 2, 3]]}\n'
        '{"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}\n'
        '{"n": 3, "rows": [[2, 1, 0], [1, 2, 0], [0, 0, 1]]}\n',
    ),
    "incidence": (
        "1 1 0 0 0 0 0 0 0\n1 0 1 0 0 0 0 0 0\n0 0 0 1 1 0 0 0 0\n"
        "0 0 0 1 0 1 0 0 0\n0 0 0 1 0 0 1 1 0\n0 0 0 1 0 0 1 0 1\n"
        "\n1 0 0\n0 1 0\n0 0 1\n"
        "\n1 1 0 0\n1 0 1 0\n0 0 0 1\n",
        '{"n": 6, "m": 9, "rows": [[1, 1, 0, 0, 0, 0, 0, 0, 0], '
        '[1, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0], '
        '[0, 0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 1, 1, 0], '
        '[0, 0, 0, 1, 0, 0, 1, 0, 1]]}\n'
        '{"n": 3, "m": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}\n'
        '{"n": 3, "m": 4, "rows": [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]}\n',
    ),
    "charpoly": (
        "1 -14 71 -172 215 -134 33\n\n1 -3 3 -1\n\n1 -5 7 -3\n",
        '{"monic_degree": 6, "gamma": [1, 14, 71, 172, 215, 134, 33]}\n'
        '{"monic_degree": 3, "gamma": [1, 3, 3, 1]}\n'
        '{"monic_degree": 3, "gamma": [1, 5, 7, 3]}\n',
    ),
    "spectrum": (
        "6.2360679775\n3\n1.7639320225\n1\n1\n1\n\n1\n1\n1\n\n3\n1\n1\n",
        '{"eigenvalues": [6.2360679775, 3.0, 1.7639320225, 1.0, 1.0, 1.0]}\n'
        '{"eigenvalues": [1.0, 1.0, 1.0]}\n'
        '{"eigenvalues": [3.0, 1.0, 1.0]}\n',
    ),
    "bounds": (
        "rho=6.2360679775\navg_ad=5\nmax_ad=7\ntw_bound=5\nheight=3\n"
        "delta_bound=5/2\n" + BOUNDS_SATISFIED
        + "\nrho=1\navg_ad=1\nmax_ad=1\ntw_bound=1\nheight=1\n"
        "delta_bound=1\n" + BOUNDS_SATISFIED
        + "\nrho=3\navg_ad=7/3\nmax_ad=3\ntw_bound=7/3\nheight=2\n"
        "delta_bound=2\n" + BOUNDS_SATISFIED,
        '{"rho": 6.2360679775, "avg_ad": "5", "max_ad": 7, "tw_bound": "5", '
        '"height": 3, "delta_bound": "5/2", ' + ALL_TRUE
        + '{"rho": 1.0, "avg_ad": "1", "max_ad": 1, "tw_bound": "1", '
        '"height": 1, "delta_bound": "1", ' + ALL_TRUE
        + '{"rho": 3.0, "avg_ad": "7/3", "max_ad": 3, "tw_bound": "7/3", '
        '"height": 2, "delta_bound": "2", ' + ALL_TRUE,
    ),
    "certificate": (
        "multiplicity=3\n(1, -1, 0, 0, 0, 0)\n(0, 0, 1, -1, 0, 0)\n"
        "(0, 0, 0, 0, 1, -1)\n"
        "\nmultiplicity=3\n(1, -1, 0)\n(1, 0, -1)\n(1, 0, 0)\n"
        "\nmultiplicity=2\n(0, 0, 1)\n(1, -1, 0)\n",
        '{"multiplicity": 3, "basis": [[1, -1, 0, 0, 0, 0], '
        '[0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]]}\n'
        '{"multiplicity": 3, "basis": [[1, -1, 0], [1, 0, -1], [1, 0, 0]]}\n'
        '{"multiplicity": 2, "basis": [[0, 0, 1], [1, -1, 0]]}\n',
    ),
    "collections": (
        "counts[0]=1\ncounts[1]=14\ncounts[2]=71\ncounts[3]=172\n"
        "counts[4]=215\ncounts[5]=134\ncounts[6]=33\ntotal=640\n"
        "\ncounts[0]=1\ncounts[1]=3\ncounts[2]=3\ncounts[3]=1\ntotal=8\n"
        "\ncounts[0]=1\ncounts[1]=5\ncounts[2]=7\ncounts[3]=3\ntotal=16\n",
        '{"counts": [1, 14, 71, 172, 215, 134, 33], "total": 640}\n'
        '{"counts": [1, 3, 3, 1], "total": 8}\n'
        '{"counts": [1, 5, 7, 3], "total": 16}\n',
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(THREE_TREE_OUTPUT))
def test_per_tree_commands_on_a_three_tree_file(capsys, tmp_path, command,
                                                as_json):
    path = tmp_path / "three.nwk"
    path.write_text(THREE_TREES, encoding="utf-8")
    argv = [command, "--file", str(path)] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == THREE_TREE_OUTPUT[command][as_json]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_failure_mid_file_keeps_the_blocks_before_it(capsys, tmp_path, as_json):
    path = tmp_path / "mid.nwk"
    path.write_text("(,);\n;\n", encoding="utf-8")
    argv = ["certificate", "--file", str(path)] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ('{"multiplicity": 2, "basis": [[1, -1], [1, 0]]}\n' if as_json
                   else "multiplicity=2\n(1, -1)\n(1, 0)\n")
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["matrix", "--gen", "star:2", "--tol", "1"],
    ["charpoly", "--gen", "star:2", "--budget", "5"],
    ["gen", "--gen", "star:2", "--tol", "1"],
    ["verify-all", "--json"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, tol, verified, message", [
    (["--max-leaves", "3"], 1e-300, 13, "error: eigensolver residual "),
], ids=["tol"])
def test_verify_all_errors_are_not_refutations(capsys, monkeypatch, argv, tol,
                                               verified, message):
    # a convergence failure exits 2, after the suites already run: the
    # caterpillar and monotonicity suites' rho, held to tol, misses its
    # residual bound at the first suite that solves it
    def strict_rho(tree):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "DEFAULT_TOL", tol)
            return spectral.spectral_radius(tree)

    monkeypatch.setattr(suites, "spectral_radius", strict_rho)
    code, out, err = run(capsys, "verify-all", *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == verified
    assert all(line.endswith(": VERIFIED") for line in lines)
    assert err.startswith(message)
    assert err.count("\n") == 1


# runs cli.main on each argv in a fresh interpreter, then prints the exit
# codes and whether each named module was loaded
_MODULE_PROBE = """
import contextlib, io, sys
from ancestral import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {runs!r}]
print(codes, *(name in sys.modules for name in {names!r}))
"""


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, run on ``args``."""
    src = str(Path(ancestral.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)


def _fresh_python(script: str, cwd=None) -> str:
    """The stdout of ``script`` in a fresh interpreter."""
    return _python("-c", script, cwd=cwd).stdout


def _module_probe(names, *runs, cwd=None) -> str:
    return _fresh_python(_MODULE_PROBE.format(
        names=names, runs=[list(argv) for argv in runs]), cwd=cwd)


def test_commands_without_a_dense_solve_leave_numpy_unloaded():
    # numpy is imported only where a block of the spectrum is solved dense
    out = _module_probe(("numpy",), ("spectrum", "--gen", "dary:2,9"),
                        ("search", "--class", "vertices-leaves:10,5",
                         "--check", "broom"),
                        ("verify-all", "--max-leaves", "4"))
    assert out == "[0, 0, 0] False\n"
    # a caterpillar's spine takes the block route, which does load it
    out = _module_probe(("numpy",),
                        ("spectrum", "--gen", "binary-caterpillar:40"))
    assert out == "[0] True\n"


def test_plain_queries_load_neither_dataclasses_nor_inspect_nor_json():
    # the records are named tuples, and only --json imports json
    out = _module_probe(("dataclasses", "inspect", "json"),
                        ("search", "--class", "vertices-leaves:10,5",
                         "--check", "broom"),
                        ("bounds", "--gen", "dary:2,9"),
                        ("verify-all", "--max-leaves", "4"))
    assert out == "[0, 0, 0] False False False\n"


def test_importing_the_cli_loads_no_argument_parser():
    out = _module_probe(("argparse", "gettext", "locale"))
    assert out == "[] False False False\n"


def test_bench_and_readme_lines_never_load_argparse(tmp_path, monkeypatch):
    # every line the benchmark sends and the README shows is well formed,
    # so the flag table reads it and argparse is never imported
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(repo / "bench"))
    import workloads

    runs = [query.argv for workload in workloads.WORKLOADS
            for query in workloads.build(workload, 1, tmp_path / "inputs",
                                         tmp_path)[0]]
    prompt = "$ ancestral "
    runs += [shlex.split(line[len(prompt):], comments=True)
             for line in (repo / "README.md").read_text("utf-8").splitlines()
             if line.startswith(prompt)]
    assert len(runs) == 14 + 12
    out = _module_probe(("argparse",), *runs, cwd=tmp_path)
    assert out == f"{[0] * len(runs)} False\n"


def test_only_verify_all_loads_the_suites():
    names = ("ancestral.suites",)
    assert _module_probe(names) == "[] False\n"
    out = _module_probe(names, ("bounds", "--gen", "star:3"),
                        ("search", "--class", "vertices-leaves:10,5",
                         "--check", "broom"))
    assert out == "[0, 0] False\n"
    out = _module_probe(names, ("verify-all", "--max-leaves", "2"))
    assert out == "[0] True\n"


def test_verify_all_run_as_a_module_imports_the_cli_once():
    # the running cli is __main__, and the suites take their claims from
    # enumeration, so nothing imports ancestral.cli a second time
    run = _python("-X", "importtime", "-m", "ancestral.cli",
                  "verify-all", "--max-leaves", "2")
    assert run.stdout.count(": VERIFIED\n") == 17
    imported = [line.rpartition("|")[2].strip()
                for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "ancestral.suites" in imported
    assert "ancestral.cli" not in imported


def test_importing_the_cli_freezes_its_objects_for_the_collector():
    out = _fresh_python("import gc\n"
                        "before = gc.get_freeze_count()\n"
                        "from ancestral import cli\n"
                        "print(before, gc.get_freeze_count() > 0)")
    assert out == "0 True\n"
