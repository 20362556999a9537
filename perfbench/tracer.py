"""Per-layer tracing of `weil` from outside the package.

`Tracer.install` wraps every public function of each `weil` module
(and the element and matrix products) and rebinds each import site, so
`weil.quantum.pbw_mono_mul` is traced as well as
`weil.kernels.pbw_mono_mul`.  The package itself is not edited.

A timed wrapper records one span (id, name, parent id, start, end) in
an in-memory array; spans are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.  The
hottest functions are counted rather than timed (`COUNTED`), because a
span around each of their calls would swamp the run; their time stays
in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("linalg", "lie", "kernels", "classical", "quantum", "flat", "checks",
           "expr", "render", "cli")

# (class path, method, span name)
METHODS = (
    ("linalg.Matrix", "__mul__", "linalg.Matrix.mul"),
    ("linalg.Matrix", "__add__", "linalg.Matrix.add"),
    ("linalg.Matrix", "__hash__", "linalg.Matrix.hash"),
    ("quantum.QuantumElement", "__mul__", "quantum.mul"),
    ("classical.ClassicalElement", "__mul__", "classical.mul"),
)

# Called about a million times in a run: counted, not timed.
COUNTED = frozenset({"kernels.add_term", "linalg.Matrix.hash", "linalg.Matrix.mul",
                     "linalg.Matrix.add"})

SPAN_FIELDS = ("id", "name", "parent", "start_ns", "end_ns")


class Tracer:
    """Spans and exact counters of one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.spans = array("q")
        self.stack = [0]  # span id 0 is the root: the traced process
        self.counts = Counter()
        self.caches = {}  # span name -> lru_cache object, for cache_info()
        self._ids = itertools.count(1)
        self._in_full_flat = [0]
        self._hooks = self._make_hooks()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, hook):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, ids = self.spans, self.stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, idx, parent, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _flagged(self, fn):
        """Mark the calls made inside `fn` (here: nullspace inside full_flat_basis)."""
        flag = self._in_full_flat

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            flag[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                flag[0] -= 1

        return wrapper

    def wrap(self, name, fn):
        if name in COUNTED:
            return self._counted(name, fn)
        if hasattr(fn, "cache_info"):
            self.caches[name] = fn
        wrapper = self._timed(name, fn, self._hooks.get(name))
        return self._flagged(wrapper) if name == "flat.full_flat_basis" else wrapper

    # -- exact counters beyond call counts -------------------------------------

    def _make_hooks(self):
        counts = self.counts
        in_full_flat = self._in_full_flat

        def pbw_word_mul(args, result):
            counts["kernels.pbw_word_mul.out_terms"] += len(result)

        def nullspace(args, result):
            m = args[0]
            counts["linalg.nullspace.cells"] += m.rows * m.cols
            counts["linalg.nullspace.nonzeros"] += sum(1 for e in m.entries if e)
            counts["linalg.nullspace.columns"] += m.cols
            counts["linalg.nullspace.nullity"] += len(result)
            if in_full_flat[0]:
                counts["flat.full_flat_basis.nullspace_calls"] += 1

        def quantum_mul(args, result):
            x, y = args
            if hasattr(y, "terms"):
                counts["quantum.mul.term_pairs"] += len(x.terms) * len(y.terms)

        return {"kernels.pbw_word_mul": pbw_word_mul, "linalg.nullspace": nullspace,
                "quantum.mul": quantum_mul}

    def install(self):
        """Wrap the public functions of every `weil` module in place."""
        import weil

        modules = [importlib.import_module(f"weil.{m}") for m in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    originals[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self.wrap(name, obj) for key, (obj, name) in originals.items()}
        for mod in modules + [weil]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        for cls_path, method, name in METHODS:
            mod_name, cls_name = cls_path.split(".")
            cls = getattr(sys.modules[f"weil.{mod_name}"], cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method)))

    # -- results -------------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds and self seconds; plus counters."""
        calls, total, self_ns = Counter(), Counter(), Counter()
        covered = {}
        spans = self.spans
        for k in range(0, len(spans), 5):
            sid, idx, parent, start, end = spans[k:k + 5]
            dur = end - start
            calls[idx] += 1
            total[idx] += dur
            self_ns[idx] += dur - covered.pop(sid, 0)
            covered[parent] = covered.get(parent, 0) + dur
        out = {}
        for idx, name in enumerate(self.names):
            if calls[idx]:
                out[name] = {"calls": calls[idx], "total_s": total[idx] / 1e9,
                             "self_s": self_ns[idx] / 1e9}
        counters = dict(self.counts)
        for name, fn in self.caches.items():
            info = fn.cache_info()
            counters[f"{name}.hits"] = info.hits
            counters[f"{name}.misses"] = info.misses
        for name, row in out.items():
            counters[f"{name}.calls"] = row["calls"]
        return out, counters

    def write(self, path):
        """Write every span, with the run id and the name table, gzipped."""
        header = {"run_id": self.run_id, "fields": SPAN_FIELDS, "names": self.names,
                  "count": len(self.spans) // 5, "int64_le": sys.byteorder == "little"}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            line = json.dumps(header).encode() + b"\n"
            fh.write(line)
            fh.write(self.spans.tobytes())
