"""Extreme and malformed inputs: every command ends in exit 0 or in exit 2
with one `error: ...` line, within its timeout and a memory limit.

Each row runs the console entry point in a child process whose address
space is capped with ``resource.setrlimit``, so an input that is refused
only after it allocates shows up as a MemoryError here, not as a machine
out of memory.  BLAS and OpenMP threads are pinned to 1 in the child, as
the benchmark does, so that importing numpy fits under the cap.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ancestral

SRC = str(Path(ancestral.__file__).resolve().parents[1])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MEMORY_LIMIT = 1 << 30  # bytes of address space per child

DEPTH = 20_000
# input files, by name; {dir} in a row's argv or stderr is their directory
FILES = {
    "deep.nwk": "(" * DEPTH + ")" * DEPTH + ";\n",
    "empty.nwk": "",
    "bom.nwk": "\ufeff(,);\n",
    "labelled.nwk": "((a,b)c,d)e;\n",
}


def _past_cap(spec: str, size: int) -> str:
    return (f"error: family spec {spec!r}: at least {size} vertices, "
            f"past the cap 1000000\n")


def _class_past_cap(spec: str, size: int) -> str:
    return (f"error: class {spec} has trees of up to {size} vertices, "
            f"past the cap 1000000\n")


def _no_tol(value: str = "1e-9") -> str:
    return f"error: unrecognized arguments: --tol {value}\n"


def _dense(what: str, rows: int, cols: int) -> str:
    return (f"error: {what} of {rows} x {cols} entries is past the cap "
            f"10000000\n")


# argv, exit code, timeout in seconds, and for exit 2 the stderr line
ROWS = [
    # families past the cap are refused before they are built
    (["gen", "--gen", "star:99999999999"], 2, 5,
     _past_cap("star:99999999999", 100000000000)),
    (["gen", "--gen", "dary:2,40"], 2, 5, _past_cap("dary:2,40", 1048575)),
    (["gen", "--gen", "dary:2,99999999999"], 2, 5,
     _past_cap("dary:2,99999999999", 1048575)),
    (["gen", "--gen", "broom:99999999999,3"], 2, 5,
     _past_cap("broom:99999999999,3", 100000000003)),
    (["gen", "--gen", "path-broom:3,99999999999"], 2, 5,
     _past_cap("path-broom:3,99999999999", 100000000003)),
    (["gen", "--gen", "binary-caterpillar:99999999999"], 2, 5,
     _past_cap("binary-caterpillar:99999999999", 199999999997)),
    (["gen", "--gen", "greedy:99999999999,2"], 2, 5,
     _past_cap("greedy:99999999999,2", 100000000002)),
    (["spectrum", "--gen", "star-plus-path:3,99999999999"], 2, 5,
     _past_cap("star-plus-path:3,99999999999", 100000000003)),
    # invalid parameters keep the constructor's message, however large
    (["gen", "--gen", "broom:-1,99999999999"], 2, 5,
     "error: broom needs m >= 0 and n >= 1\n"),
    (["gen", "--gen", "dary:0,99999999999"], 2, 5,
     "error: need d >= 1 and h >= 0\n"),
    (["caterpillar", "--n", "2001"], 2, 5,
     "error: argument --n: must be at most 2000, got 2001\n"),
    # dense outputs past the entry cap are refused before they are built
    (["matrix", "--gen", "star:30000"], 2, 5,
     _dense("ancestral matrix", 30000, 30000)),
    (["incidence", "--gen", "star:30000"], 2, 5,
     _dense("incidence matrix", 30000, 30000)),
    (["certificate", "--gen", "star:100000"], 2, 5,
     _dense("eigenvalue-1 basis", 100000, 100000)),
    (["spectrum", "--gen", "binary-caterpillar:20000"], 2, 5,
     _dense("branch block", 19999, 19999)),
    # no command takes --tol
    (["spectrum", "--gen", "star:3", "--tol", "1e-9"], 2, 5, _no_tol()),
    (["bounds", "--gen", "star:3", "--tol", "1e-9"], 2, 5, _no_tol()),
    (["caterpillar", "--n", "3", "--tol", "1e-9"], 2, 5, _no_tol()),
    (["transform", "--gen", "star:3", "--op", "star-shift", "--path", "0",
      "--leaf", "1", "--tol", "1e-9"], 2, 5, _no_tol()),
    (["search", "--class", "vertices-leaves:7,3", "--check", "broom",
      "--tol", "1e-9"], 2, 5, _no_tol()),
    (["verify-all", "--max-leaves", "2", "--tol", "1e-9"], 2, 5, _no_tol()),
    (["spectrum", "--gen", "star:3", "--tol", "1e-300"], 2, 5,
     _no_tol("1e-300")),
    # deep trees, from a family and from a file
    (["gen", "--gen", f"dary:1,{DEPTH}"], 0, 10, None),
    (["charpoly", "--file", "{dir}/deep.nwk"], 0, 10, None),
    # files: empty, with a byte-order mark, with labels
    (["charpoly", "--file", "{dir}/empty.nwk"], 2, 5,
     "error: no trees in {dir}/empty.nwk\n"),
    (["charpoly", "--file", "{dir}/bom.nwk"], 0, 5, None),
    (["charpoly", "--file", "{dir}/labelled.nwk"], 0, 5, None),
    # bad specs and an oversized class
    (["search", "--class", "vertices:x", "--check", "broom"], 2, 5,
     "error: class spec 'vertices:x': bad integer\n"),
    (["gen", "--gen", "dary:2,,3"], 2, 5,
     "error: family spec 'dary:2,,3': bad integer\n"),
    (["gen", "--gen", "frobnicate:3"], 2, 5,
     "error: family spec 'frobnicate:3': unknown name 'frobnicate'\n"),
    (["search", "--class", "vertices-leaves:1000,500", "--check", "broom"],
     2, 10, "error: vertices-leaves:1000,500 exceeds cap 1000000\n"),
    # classes, even of one tree, whose trees pass the family cap are
    # refused before they are counted
    (["search", "--class", "outdegrees:3000000", "--check", "greedy"], 2, 5,
     _class_past_cap("outdegrees:3000000", 3000001)),
    (["search", "--class", "outdegrees:1000000", "--check", "greedy"], 2, 5,
     _class_past_cap("outdegrees:1000000", 1000001)),
    (["search", "--class", "vertices-leaves:3000000,2999999", "--check",
      "broom"], 2, 5,
     _class_past_cap("vertices-leaves:3000000,2999999", 3000000)),
    (["search", "--class", "vertices-leaves:3000000,1", "--check", "broom"],
     2, 5, _class_past_cap("vertices-leaves:3000000,1", 3000000)),
    (["search", "--class", "series-reduced:500001", "--check",
      "binary-caterpillar"], 2, 5, _class_past_cap("series-reduced:500001", 1000001)),
]


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("inputs")
    for name, text in FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@pytest.mark.parametrize("argv, code, timeout, stderr", ROWS,
                         ids=[" ".join(row[0]) for row in ROWS])
def test_every_input_exits_0_or_2(input_dir, argv, code, timeout, stderr):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
               **{var: "1" for var in THREAD_VARS})
    argv = [arg.format(dir=input_dir) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "ancestral.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=_limit_memory)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    assert proc.stderr == ("" if stderr is None
                           else stderr.format(dir=input_dir))
