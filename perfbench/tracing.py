"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions and methods of each layer
module of ``ulrichmf`` with timing wrappers, and ``Tracer.uninstall`` puts
the originals back, including every place a
function was imported by value (``cli.smoothness_check`` is
``pencil.smoothness_check``).  Each wrapped call records one span: name,
start, end and parent, with the spans of one operation sharing an id.  Spans
are kept in memory, up to ``MAX_SPANS``, and written out when the run ends;
self times and work counts are accumulated for every call.

A layer is a module.  A call's self time is its duration minus the time of
the wrapped calls it made.  ``fields`` is not wrapped: its scalar calls run
into the millions and their time lands in the callers' self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "mf", "graded", "modp", "linalg", "poly", "polymatrix",
          "clifford", "knorrer", "pencil", "binary")
ALL_MODULES = LAYERS + ("fields", "betti")

# private helpers wrapped for their work counts
EXTRA_FUNCTIONS = {"clifford": ("_mat_mul_scalar",)}
# operator methods wrapped besides the public ones
DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__",
           "__eq__", "__matmul__")
# layers whose calls are counted when they enter the layer from another one
ENTRY_COUNTED = ("modp", "linalg", "pencil")
# spans kept in memory per run; self times and counts cover every call
MAX_SPANS = 200_000


def _shape_entries(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    return 0


def _matmul_scalar_count(args, result) -> int:
    _, a, b = args[:3]
    if not a or not b:
        return 0
    return len(a) * len(b) * len(b[0])


# per-call work counts: qualified name -> (metric, f(args, result) -> increment)
COUNTERS = {
    "graded.graded_kernel": ("graded.kernel_calls", lambda args, res: 1),
    "graded.degree_map_matrix": ("graded.map_matrix_entries",
                                 lambda args, res: len(res[2]) * len(res[1])),
    "graded.IncrementalEchelon.add": ("graded.echelon_adds", lambda args, res: 1),
    "graded.graded_quotient_dims": ("graded.quotient_dims_calls", lambda args, res: 1),
    "poly.Poly.__init__": ("poly.new", lambda args, res: 1),
    "poly.Poly.__mul__": ("poly.muls", lambda args, res: 1),
    "poly.Poly.evaluate": ("poly.evaluations", lambda args, res: 1),
    "poly.Poly.substitute": ("poly.substitutions", lambda args, res: 1),
    "polymatrix.PolyMatrix.__init__": ("polymatrix.new", lambda args, res: 1),
    "polymatrix.PolyMatrix.mul": ("polymatrix.matmuls", lambda args, res: 1),
    "clifford._mat_mul_scalar": ("clifford.scalar_mults", _matmul_scalar_count),
}

SELF_METRICS = tuple(f"{layer}.self_ms" for layer in LAYERS)
COUNT_METRICS = ("graded.kernel_calls", "graded.map_matrix_entries", "graded.echelon_adds",
                 "graded.quotient_dims_calls", "modp.calls", "modp.entries", "linalg.calls",
                 "poly.new", "poly.muls", "poly.evaluations", "poly.substitutions",
                 "polymatrix.new", "polymatrix.matmuls", "clifford.scalar_mults",
                 "pencil.calls")


class Tracer:
    """Wraps the layer modules and accumulates spans, self times and counts."""

    def __init__(self):
        self.names: list[str] = []
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original, wrapper)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        modules = {m: importlib.import_module(f"ulrichmf.{m}") for m in ALL_MODULES}
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(layer, ())
                ):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                    replaced[id(obj)] = (obj, wrapped)
                    self._patches.append((mod, attr, obj, wrapped))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._build_class(obj, layer)
        # names imported by value: from .pencil import smoothness_check
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj and obj.__module__ != mod.__name__:
                    self._patches.append((mod, attr, obj, hit[1]))

    def _build_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, layer)
            else:
                continue
            self._patches.append((cls, attr, raw, wrapped))

    # -- the wrapper ---------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        entry_counted = layer in ENTRY_COUNTED
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            outer = stack[-1] if stack else None
            if entry_counted and (outer is None or outer[1] != layer):
                counts[layer + ".calls"] += 1
                if layer == "modp" and args:
                    counts["modp.entries"] += _shape_entries(args[0])
            index = self._open(name_id, -1 if outer is None else outer[2])
            frame = [0, layer, index]  # child time, layer, span index
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[0]
                if outer is not None:
                    outer[0] += duration
                if index >= 0:
                    self.span_start[index] = start
                    self.span_end[index] = end
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _open(self, name_id: int, parent: int) -> int:
        """Reserve a span slot; -1 once MAX_SPANS are held."""
        index = len(self.span_start)
        if index >= MAX_SPANS:
            self.dropped += 1
            return -1
        self.span_op.append(self.op)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        return index

    # -- results -----------------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Self time per layer (ms) and work counts, each averaged per operation."""
        out = {m: self.self_ns[m.split(".")[0]] / 1e6 / ops for m in SELF_METRICS}
        out.update({m: self.counts[m] / ops for m in COUNT_METRICS})
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "columns": ["op", "id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"[{self.span_op[i]},{i},{self.span_parent[i]},{self.span_name[i]},"
                         f"{self.span_start[i]},{self.span_end[i]}]\n")
