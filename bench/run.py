#!/usr/bin/env python3
"""Benchmark of the ancestral CLI, driven the way a user drives it.

    python3 bench/run.py --workload large-tree --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one report

Each query is one CLI invocation in a fresh interpreter, timed around
``ancestral.cli.main``.  One client sends one query at a time (a closed
loop) and repeats the workload's queries in passes until --seconds is used
up.  BLAS and OpenMP threads are pinned to 1 in the child environment only.
Every output is checked against the stored seed-commit reference and the
independent oracles of bench/workloads.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports its per-layer metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Per-pass details, the environment and the input digests
go to bench/out/<workload>-seed<seed>-trace<trace>.json, the spans of the
last traced pass to bench/out/<workload>/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import compare, compare_reference
from workloads import WORKLOADS, Query, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})

# per-command totals, printed for large-tree
COMMANDS = ("charpoly", "bounds", "spectrum", "matrix", "certificate")

# Times are scaled to a machine on which one unit of the child's calibration
# kernel takes 1 ms: t * UNIT_REF_NS / (mean unit time measured around t).
# On a shared host the speed of a core drifts by tens of percent within
# minutes; the kernel, run in the same process before, during and after the
# measured work, takes most of that drift out.  Unscaled times are kept as
# *_raw_s.
UNIT_REF_NS = 1e6

RUN_LIMIT_S = 170.0  # a run stops starting queries after this, to end within 180 s

WARM_UP = Query("warm-up", ("gen", "--gen", "star:3"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class OutOfTime(Exception):
    pass


def run_query(query: Query, spans_path, deadline: float):
    """Run one query in a fresh interpreter: (process, spawn time, meta)."""
    meta_path = OUT / "meta.json"
    meta_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(meta_path),
           str(spans_path) if spans_path else "-", query.name, *query.argv]
    remaining = deadline - _now()
    if remaining <= 0:
        raise OutOfTime(query.name)
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise OutOfTime(query.name) from exc
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else None
    return proc, spawn_ns, meta


def check_query(query: Query, reference, proc, meta):
    """(reason, wrong): reason is None when the query succeeded; wrong marks a
    wrong answer, as opposed to a crash or an error exit."""
    stdout = proc.stdout.decode("utf-8", "replace")
    stderr = proc.stderr.decode("utf-8", "replace")
    last_err = stderr.strip().splitlines()[-1][:120] if stderr.strip() else ""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback: {last_err}", False
    if meta is None or proc.returncode not in (0, 1):
        return f"exit {proc.returncode}: {last_err}", False
    if proc.returncode != 0:
        return "exit 1: a checked claim was refuted", True
    for oracle, text in query.oracles:
        diff = compare(text, stdout)
        if diff:
            return f"{oracle} oracle: {diff}", True
    if query.reference:
        diff = compare_reference(reference, stdout)
        if diff:
            return f"reference: {diff}", True
    return None, False


def run_pass(queries, references, spans_dir, deadline: float) -> list:
    records = []
    for idx, query in enumerate(queries):
        spans_path = spans_dir / f"{idx:02d}.json" if spans_dir else None
        proc, spawn_ns, meta = run_query(query, spans_path, deadline)
        reason, wrong = check_query(query, references.get(query.name), proc, meta)
        rec = {"query": query.name, "command": query.command,
               "exit": proc.returncode, "stdout_bytes": len(proc.stdout),
               "failure": reason, "wrong": wrong}
        if meta is not None:
            before, after = (k / meta["kernel_units"] for k in meta["kernel_ns"])
            unit_ns = [before, after] + meta["samples_ns"]
            setup_scale = UNIT_REF_NS / before
            query_scale = UNIT_REF_NS / statistics.fmean(unit_ns)
            setup_ns = meta["ready_ns"] - spawn_ns
            rec.update(setup_raw_s=setup_ns / 1e9,
                       setup_s=setup_ns * setup_scale / 1e9,
                       query_raw_s=meta["query_ns"] / 1e9,
                       query_s=meta["query_ns"] * query_scale / 1e9,
                       kernel_unit_ms=[before / 1e6, after / 1e6],
                       samples_ms=[x / 1e6 for x in meta["samples_ns"]],
                       rss_mb=meta["maxrss_kb"] / 1024)
            if "layers" in meta:
                rec["layers"] = {k: v * query_scale if k.endswith("_ns") else v
                                 for k, v in meta["layers"].items()}
        records.append(rec)
    return records


def _proc_sample():
    """Load average and CPU steal ticks, to tell noisy runs apart."""
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
        ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None
    return {"loadavg": [float(x) for x in load], "cpu_ticks": sum(ticks),
            "steal_ticks": ticks[7] if len(ticks) > 7 else 0}


def _static_environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"python": sys.version, "numpy": numpy.__version__, "blas": blas,
            "child_threads": {v: CHILD_ENV[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _typical_pass(passes, key, command=None) -> float:
    """Sum over the queries of each query's median over the passes.  Steadier
    than the median of the pass sums: one slow moment spoils one query of a
    pass, not the whole pass."""
    return sum((_median(p[i].get(key, 0.0) for p in passes)
                for i, rec in enumerate(passes[0])
                if command is None or rec["command"] == command), 0.0)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds`` and compute all its metrics."""
    started = _now()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    queries, inputs = build(workload, seed, OUT / workload / "inputs", ROOT)
    references = json.loads((BENCH / "reference.json").read_text())
    spans_dir = OUT / workload / "spans" if trace else None
    if spans_dir:
        spans_dir.mkdir(parents=True, exist_ok=True)
    env_start = _proc_sample()

    # untimed: byte-code and page caches warm, and the program is the checkout's
    proc, _, meta = run_query(WARM_UP, None, deadline)
    if meta is None or not Path(meta["module"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: the child did not import ancestral from {SRC}: "
                         f"{proc.stderr.decode(errors='replace')[-300:]}")

    plain, traced = [], []
    measure_start = _now()
    while True:
        round_start = _now()
        plain.append(run_pass(queries, references, None, deadline))
        if trace:
            traced.append(run_pass(queries, references, spans_dir, deadline))
        now = _now()
        if now - measure_start + (now - round_start) > seconds:
            break
    env_end = _proc_sample()

    records = [r for p in plain + traced for r in p]
    failures = [r for r in records if r["failure"]]
    metrics = {
        "wall_s": _typical_pass(plain, "query_s"),
        "setup_s": _median(r["setup_s"] for p in plain for r in p if "setup_s" in r),
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for p in plain for r in p),
        "fail_frac": len(failures) / len(records),
        "wall_raw_s": _typical_pass(plain, "query_raw_s"),
        "setup_raw_s": _median(r["setup_raw_s"] for p in plain for r in p
                               if "setup_raw_s" in r),
        "kernel_unit_ms": _median(k for p in plain for r in p
                                  for k in r.get("kernel_unit_ms", ())),
    }
    for command in COMMANDS:
        metrics[f"{command}_s"] = _typical_pass(plain, "query_s", command)
    if trace:
        layer_keys = [k for r in traced[0] if "layers" in r for k in r["layers"]]
        for key in dict.fromkeys(layer_keys):
            per_pass = [sum(r["layers"][key] for r in p if "layers" in r) for p in traced]
            if key.endswith("_ns"):
                metrics[key[:-3] + "_s"] = _median(v / 1e9 for v in per_pass)
            else:
                metrics[key] = _median(per_pass)
        metrics["cli.stdout_bytes"] = _median(sum(r["stdout_bytes"] for r in p) for p in traced)
        metrics["trace_overhead_s"] = _typical_pass(traced, "query_s") - metrics["wall_s"]

    steal = None
    if env_start and env_end and env_end["cpu_ticks"] > env_start["cpu_ticks"]:
        steal = ((env_end["steal_ticks"] - env_start["steal_ticks"])
                 / (env_end["cpu_ticks"] - env_start["cpu_ticks"]))
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "elapsed_s": _now() - started,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "attempted": len(records), "failed": len(failures),
        "correct": not any(r["wrong"] for r in records),
        "metrics": metrics,
        "failures": sorted({(r["query"], r["failure"]) for r in failures}),
        "environment": {**_static_environment(), "start": env_start,
                        "end": env_end, "steal_share": steal},
        "inputs": inputs,
        "pass_records": {"plain": plain, "traced": traced},
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def report(result: dict, units: dict) -> None:
    """Human-readable lines: every metric with its unit, failures, noise."""
    env = result["environment"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']['plain']}+{result['passes']['traced']} traced "
          f"elapsed={result['elapsed_s']:.1f}s")
    print(f"   python {env['python'].split()[0]}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, loadavg {env['start'] and env['start']['loadavg']} -> "
          f"{env['end'] and env['end']['loadavg']}, steal share {env['steal_share']}")
    for name, value in result["metrics"].items():
        print(f"   {name:36s} {value:.6g} {units.get(name, '')}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for query, reason in result["failures"]:
        print(f"   FAILED {query}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ancestral" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'ancestral'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_frac="1", wall_raw_s="s", setup_raw_s="s", kernel_unit_ms="ms",
                 **{f"{command}_s": "s" for command in COMMANDS})

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except OutOfTime as exc:
        print(f"bench: out of time at query {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result, units)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{m['name']}" if prefix else m["name"]):
                    {"value": r["metrics"][m["name"]], "unit": m["unit"]}
                    for r in results for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
