"""Tests of the benchmark itself: output checker, inputs, oracles, tracer.

    python3 -m pytest bench/test_bench.py
"""

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import workloads as wl
from check import compare, compare_reference
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
REFS = json.loads((BENCH / "reference.json").read_text())
FLOAT = re.compile(r"\d+\.\d+")


def _scale_floats(text: str, factor: float) -> str:
    return FLOAT.sub(lambda m: repr(float(m.group()) * factor), text)


def test_checker_accepts_the_reference_outputs():
    for name, ref in REFS.items():
        if "stdout" in ref:
            assert compare(ref["stdout"], ref["stdout"]) is None, name
            assert compare(ref["stdout"], _scale_floats(ref["stdout"], 1 + 1e-11)) is None, name


def test_checker_rejects_a_wrong_coefficient():
    ref = REFS["charpoly binary-caterpillar:60"]["stdout"]
    tokens = ref.split()
    tokens[7] = str(int(tokens[7]) + 1)
    assert compare(ref, " ".join(tokens) + "\n") is not None


def test_checker_rejects_a_violated_line():
    for name, good in (("bounds binary-caterpillar:400", "height<=rho: SATISFIED"),
                       ("verify-all 9", "trace-identity: VERIFIED")):
        ref = REFS[name]["stdout"]
        bad = ref.replace(good, good.replace("SATISFIED", "VIOLATED").replace("VERIFIED", "VIOLATED"))
        assert bad != ref
        assert compare(ref, bad) is not None


def test_checker_rejects_a_float_off_by_1e6_relative():
    ref = REFS["bounds binary-caterpillar:400"]["stdout"]
    bad = _scale_floats(ref, 1 + 1e-6)
    assert bad != ref
    assert compare(ref, bad) is not None


def test_checker_compares_integers_and_rationals_exactly():
    assert compare("avg_ad=21253799/400\n", "avg_ad=21253799/400\n") is None
    assert compare("avg_ad=21253799/400\n", "avg_ad=21253800/400\n") is not None
    assert compare("1 -3000\n", "1 -2999\n") is not None
    assert compare("a\nb\n", "a\n") is not None


def test_digest_reference_is_exact():
    ref = {"sha256": hashlib.sha256(b"1 2\n").hexdigest()}
    assert compare_reference(ref, "1 2\n") is None
    assert compare_reference(ref, "1 3\n") is not None


def test_inputs_depend_only_on_the_seed(tmp_path):
    _, first = wl.build("large-tree", 7, tmp_path / "a", tmp_path)
    _, again = wl.build("large-tree", 7, tmp_path / "b", tmp_path)
    _, other = wl.build("large-tree", 8, tmp_path / "c", tmp_path)
    assert first == again
    changed = {a["file"] for a, b in zip(first, other) if a["sha256"] != b["sha256"]}
    assert changed == {"random-70.nwk", "random-600x4.nwk"}


def test_random_trees_have_the_requested_size():
    rng = random.Random(5)
    for n_vertices, n_leaves in ((70, 35), (600, 300)):
        parents = wl.random_parents(rng, n_vertices, n_leaves)
        assert len(parents) == n_vertices
        assert n_vertices - len(set(parents[1:])) == n_leaves
        assert all(parents[v] < v for v in range(1, n_vertices))


def test_newick_and_charpoly_oracle_on_the_readme_tree():
    parents = [None, 0, 1, 1, 0, 4, 4, 4, 7, 7]
    assert wl.newick(parents) == "((,),(,,(,)));"
    assert wl.charpoly_dp(parents) == [33, -134, 215, -172, 71, -14, 1]


def test_oracles_agree_with_the_seed_commit_references():
    cat60 = REFS["charpoly binary-caterpillar:60"]["stdout"]
    assert wl._poly_text(wl.charpoly_dp(wl.caterpillar_parents(60))) == cat60
    assert wl._poly_text(wl.caterpillar_recursion(60)) == cat60
    assert compare(REFS["bounds dary:2,9"]["stdout"],
                   wl.bounds_text([wl.dary_parents(2, 9)])) is None
    assert compare(REFS["bounds binary-caterpillar:400"]["stdout"],
                   wl.bounds_text([wl.caterpillar_parents(400)])) is None


def test_tracer_self_time_and_counters():
    ticks = iter(range(0, 10_000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    build = tracer.wrap("tree_core", "build_tree",
                        lambda parents: SimpleNamespace(n_vertices=len(parents)))

    def trees():
        yield build([None, 0])
        yield build([None, 0, 0])

    enum = tracer.wrap("enumeration", "enumerate_class", trees)
    main = tracer.wrap("cli", "main", lambda: list(enum()))
    main()
    out = tracer.summary()
    # main [0, 110]; two resumptions [10, 40] and [50, 80] each around a
    # build [20, 30] / [60, 70]; a last resumption [90, 100] ends the generator
    assert out["cli.calls"] == out["enumeration.calls"] == 1
    assert out["tree_core.calls"] == 2
    assert out["tree_core.vertices"] == 5
    assert out["tree_core.self_ns"] == 20
    assert out["enumeration.self_ns"] == 50
    assert out["cli.self_ns"] == 110 - 70


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-all",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_child_reports_every_layer(tmp_path):
    meta_path, spans_path = tmp_path / "meta.json", tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(meta_path), str(spans_path),
         "q", "gen", "--gen", "star:3"],
        env={**os.environ, "PYTHONPATH": str(BENCH.parent / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "(,,);\n"
    layers = json.loads(meta_path.read_text())["layers"]
    assert layers["cli.calls"] == 2  # main and build_parser
    assert layers["tree_core.vertices"] == 4
    assert layers["newick_io.bytes"] == len("(,,);")
    # every layer module is imported, so every layer has a nonzero self time
    assert all(layers[f"{layer}.self_ns"] > 0 for layer in LAYERS)
    names = json.loads(spans_path.read_text())["names"]
    assert {f"{layer}.import" for layer in LAYERS} <= set(names)
