"""Run one ancestral CLI query in this fresh interpreter and record its timings.

Usage: python3 child.py META_JSON SPANS_JSON|- QUERY_ID CLI_ARGS...

The query is timed around ``ancestral.cli.main``; stdout is flushed inside
the timed region.  With a spans path the layer tracer is installed first.

Machine speed is measured next to the query with a fixed calibration kernel:
KERNEL_UNITS units just before the query, one unit every SAMPLE_EVERY_S
seconds during it (from a SIGALRM handler, whose time is taken out of the
query time), and KERNEL_UNITS units just after it.

META_JSON receives the time set-up ended (CLOCK_MONOTONIC, comparable with
the parent's), the net query time, the kernel times, the peak RSS and, when
traced, the per-layer summary.  An exception from the CLI still ends in a
traceback and exit 1, as with the installed ``ancestral`` command.
"""

import json
import resource
import signal
import sys
import time

KERNEL_UNITS = 20
SAMPLE_EVERY_S = 0.1


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def kernel_unit() -> int:
    """Fixed pure-Python work of the kinds the program spends its time on: a
    small-integer matrix product and a fraction-free elimination."""
    n = 16
    a = [[(3 * i + 7 * j) % 13 - 6 for j in range(n)] for i in range(n)]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = a[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    m = [[(i * 31 + j * 17) % 23 + (5 if i == j else 0) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k] or 1
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mi[k] * mk[j]) // prev
        prev = pivot
    return out[n - 1][n - 1] + m[n - 1][n - 1]


def kernel_ns() -> int:
    """Time of KERNEL_UNITS kernel units."""
    start = _now_ns()
    for _ in range(KERNEL_UNITS):
        kernel_unit()
    return _now_ns() - start


class Sampler:
    """Times one kernel unit every SAMPLE_EVERY_S seconds while armed."""

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0

    def _sample(self, signum, frame) -> None:
        start = _now_ns()
        kernel_unit()
        end = _now_ns()
        self.samples.append(end - start)
        self.spent_ns += _now_ns() - start

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    meta_path, spans_path, query_id, *argv = sys.argv[1:]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.time_imports()
    from ancestral import cli

    if tracer is not None:
        tracer.install()
    ready = _now_ns()
    before = kernel_ns()
    sampler = Sampler()
    sampler.arm()
    enter = _now_ns()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        leave = _now_ns()
        sampler.disarm()
        meta = {"ready_ns": ready, "query_ns": leave - enter - sampler.spent_ns,
                "kernel_ns": [before, kernel_ns()], "samples_ns": sampler.samples,
                "kernel_units": KERNEL_UNITS,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "module": cli.__file__}
        if tracer is not None:
            meta["layers"] = tracer.summary()
            tracer.write_spans(spans_path, query_id)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main())
