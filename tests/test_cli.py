"""Front-end behavior: frozen text output, JSON forms, exit codes."""

import json
import math

import pytest

from ancestral import ExtremalReport, caterpillar_charpoly, star
from ancestral import cli

from helpers import EXAMPLE_C_ROWS, EXAMPLE_GAMMA

EX = "((,),(,,(,)));"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, err = run(capsys, "collections", "--gen", "star:30",
                         "--budget", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_caterpillar_small_text(capsys):
    code, out, _ = run(capsys, "caterpillar", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "coefficients=1 -2 1",
        "trig_rho=n/a",
        "numeric_rho=1",
        f"asymptotic={8 / math.pi ** 2:.12g}",
    ]


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


def test_search_counterexample(capsys, monkeypatch):
    fake = ExtremalReport(holds=False, argmax=star(2), rho_max=9.0,
                          rho_claimed=3.0)
    monkeypatch.setattr(cli.enumeration, "verify_extremal",
                        lambda *a, **k: fake)
    code, out, _ = run(capsys, "search", "--class", "vertices-leaves:7,3",
                       "--check", "broom")
    assert code == 1
    assert out == "COUNTEREXAMPLE rho_max=9 rho_claimed=3 argmax=(,);\n"


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


def test_bad_newick_exits_2(capsys):
    code, _, err = run(capsys, "matrix", "--newick", "((,)")
    assert code == 2
    assert err.startswith("error:")


def test_bad_path_integer_exits_2(capsys):
    code, _, err = run(capsys, "transform", "--gen", "star:3",
                       "--op", "star-shift", "--path", "x", "--leaf", "1")
    assert code == 2
    assert err.startswith("error:")


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


def test_verify_all_smoke(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-leaves", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert lines[0] == "gram-identity: VERIFIED"
    assert all(line.endswith(": VERIFIED") for line in lines)


@pytest.mark.parametrize("value", ["0", "1", "-3", "two"])
def test_verify_all_rejects_bad_max_leaves(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-all", "--max-leaves", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument --max-leaves:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "x"])
def test_tol_must_be_positive_and_finite(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--gen", "star:3", "--tol", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument --tol:")
    assert err.count("\n") == 1


def test_missed_residual_reports_residual_and_bound(capsys):
    code, out, err = run(capsys, "spectrum", "--newick", EX, "--tol", "1e-300")
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
