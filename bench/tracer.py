"""Span tracer for one CLI invocation, installed from outside the program.

Every public function of each layer module is replaced, at every module
binding inside the ``ancestral`` package, by a wrapper that records a span:
name, start, end and parent.  ``numpy.linalg.eigh`` and ``eigvalsh`` are
wrapped too and counted in the spectral layer, so a refactor inside
``spectral`` cannot hide its eigensolves.  Per-element helpers are left
unwrapped: their cost stays in the caller's self time.  The import of each
layer module is a span of that layer as well (``<layer>.import``): every
invocation pays it, so work moved to import time stays visible.  Spans are
kept in memory and written once, after the query.
"""

from __future__ import annotations

import ast
import importlib
import importlib.abc
import importlib.machinery
import importlib.util
import inspect
import json
import math
import sys
import time
import types
from collections import Counter
from functools import wraps
from pathlib import Path

import numpy

LAYERS = ("cli", "newick_io", "tree_core", "ancestral_matrices",
          "exact_charpoly", "spectral", "bounds_theorems", "enumeration",
          "path_collections", "caterpillar_analysis", "tree_ops")

PER_ELEMENT = frozenset({
    "tree_core.ancestral_level",
    "path_collections.upward_paths",
    "caterpillar_analysis.chebyshev_t",
    "caterpillar_analysis.chebyshev_u",
})


def _text_bytes(args, kwargs, result):
    return len(args[0] if args else kwargs["text"])


def _eigen_rows(args, kwargs, result):
    """Rows over all matrices of a (possibly stacked) eigensolve."""
    return math.prod(numpy.shape(args[0] if args else kwargs["a"])[:-1])


# "layer.function" -> (counter, amount(args, kwargs, result), outermost only).
# Outermost-only counters skip calls made from inside the same layer, so a
# wrapper that delegates to a sibling is not counted twice.
WORK = {
    "newick_io.parse_newick": ("newick_io.bytes", _text_bytes, True),
    "newick_io.parse_newick_with_labels": ("newick_io.bytes", _text_bytes, True),
    "newick_io.serialize_newick": ("newick_io.bytes", lambda a, k, r: len(r), True),
    "tree_core.build_tree": ("tree_core.vertices", lambda a, k, r: r.n_vertices, False),
    "ancestral_matrices.ancestral_matrix":
        ("ancestral_matrices.entries", lambda a, k, r: r.n * r.n, False),
    "exact_charpoly.bareiss_determinant":
        ("exact_charpoly.bareiss_calls", lambda a, k, r: 1, False),
    "exact_charpoly.char_poly":
        ("exact_charpoly.degree_sum", lambda a, k, r: r.degree, True),
    "exact_charpoly.charpoly_by_interpolation":
        ("exact_charpoly.degree_sum", lambda a, k, r: len(r) - 1, True),
    "exact_charpoly.charpoly_by_faddeev_leverrier":
        ("exact_charpoly.degree_sum", lambda a, k, r: len(r) - 1, True),
    "exact_charpoly.gamma_coefficients":
        ("exact_charpoly.degree_sum", lambda a, k, r: len(r) - 1, True),
    "spectral.numpy.linalg.eigh": ("spectral.eigh_rows", _eigen_rows, False),
    "spectral.numpy.linalg.eigvalsh": ("spectral.eigh_rows", _eigen_rows, False),
    "enumeration.encoding_to_tree": ("enumeration.trees", lambda a, k, r: 1, False),
    "path_collections.count_collections":
        ("path_collections.collections", lambda a, k, r: r.total, False),
}

WORK_COUNTERS = ("newick_io.bytes", "tree_core.vertices",
                 "ancestral_matrices.entries", "exact_charpoly.bareiss_calls",
                 "exact_charpoly.degree_sum", "spectral.eigh_calls",
                 "spectral.eigh_rows", "enumeration.trees",
                 "path_collections.collections")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []   # span name table: "layer.function"
        self.layer_of: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start, end, parent index]
        self.stack: list[int] = []   # indices of the open spans
        self.counts: Counter = Counter()

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_id, self.clock(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def _count(self, name: str, layer: str, args, kwargs, result) -> None:
        counter, amount, outermost = WORK[name]
        if outermost and self.stack and self.layer_of[self.spans[self.stack[-1]][0]] == layer:
            return
        self.counts[counter] += amount(args, kwargs, result)

    def wrap(self, layer: str, func_name: str, func, calls: str = ""):
        """A wrapper recording one span per call, or one per resumption for a
        generator function, under ``layer``; each call adds 1 to the counter
        ``calls`` (default: the layer's call count)."""
        name = f"{layer}.{func_name}"
        name_id = self._span_name(layer, func_name)
        calls = calls or f"{layer}.calls"
        counted = name in WORK

        if inspect.isgeneratorfunction(func):
            @wraps(func)
            def gen_wrapper(*args, **kwargs):
                self.counts[calls] += 1
                inner = func(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            idx = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if counted:
                self._count(name, layer, args, kwargs, result)
            return result
        return wrapper

    def _span_name(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def time_imports(self) -> None:
        """Record a span around the execution of each layer module.  Call
        before ``ancestral`` is imported.

        The modules the layers import from outside the package are imported
        first, so an import span times the layer's own module body and not
        whichever library it happens to load first."""
        package_dir = importlib.util.find_spec("ancestral").submodule_search_locations[0]
        for path in sorted(Path(package_dir).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    importlib.import_module(name)
        sys.meta_path.insert(0, _ImportTimer(self))

    def install(self) -> None:
        """Wrap the public functions of every layer, at every binding."""
        packages = [m for n, m in sys.modules.items()
                    if n == "ancestral" or n.startswith("ancestral.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ancestral.{layer}"]
            for func_name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not func_name.startswith("_")
                        and f"{layer}.{func_name}" not in PER_ELEMENT):
                    wrappers[obj] = self.wrap(layer, func_name, obj)
        for module in packages:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        for func_name in ("eigh", "eigvalsh"):
            func = getattr(numpy.linalg, func_name)
            setattr(numpy.linalg, func_name,
                    self.wrap("spectral", f"numpy.linalg.{func_name}", func,
                              calls="spectral.eigh_calls"))

    def summary(self) -> dict:
        """Calls and self time per layer, plus the work counters.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = Counter()
        for idx, (name_id, start, end, _) in enumerate(self.spans):
            self_ns[self.layer_of[name_id]] += end - start - child_ns[idx]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.counts[f"{layer}.calls"]
            out[f"{layer}.self_ns"] = self_ns[layer]
        for counter in WORK_COUNTERS:
            out[counter] = self.counts[counter]
        return out

    def write_spans(self, path: str, query: str) -> None:
        """One JSON object: the query id, the span name table, and the spans
        as [name id, start ns, end ns, parent index or -1]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"query": query, "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Finds ``ancestral.<layer>`` like the path finder does, with a loader
    whose module execution is a span of that layer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != "ancestral" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None:
            spec.loader = _TimedLoader(spec.loader, self.tracer,
                                       self.tracer._span_name(layer, "import"))
        return spec


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer: Tracer, name_id: int):
        self.loader = loader
        self.tracer = tracer
        self.name_id = name_id

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module) -> None:
        idx = self.tracer._open(self.name_id)
        try:
            self.loader.exec_module(module)
        finally:
            self.tracer._close(idx)
