"""Spans around palmdpp's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of the traced modules,
and the dense linear-algebra entry points of numpy and scipy, with a
wrapper that records a span: name, start, end, parent span and
operation id.  Because palmdpp modules import one another's functions by
name, the wrapper is substituted wherever a module namespace holds the
original.  `uninstall` restores the originals, so untraced passes run the
program exactly as shipped.

Spans stay in memory until the run ends.  `np.linalg.det` is counted
but not timed: a `couple` operation calls it thousands of times and a
span per call would dominate the overhead.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("cli", "kernel_core", "finite_dpp", "analysis", "numerics")
EIG_SPANS = ("linalg.eigh", "linalg.eigvalsh", "scipy.linalg.eigh", "scipy.linalg.eigvalsh")


def _result_counters(name: str, args, kwargs, result) -> dict:
    """Counts read off a traced call: draws, coupling pairs, grid size."""
    if name == "finite_dpp.sample_exact_many":
        draws = kwargs.get("draws", args[2] if len(args) > 2 else None)
        return {"draws": int(draws)}
    if name == "finite_dpp.coupling_feasible" and result[1] is not None:
        return {"pairs": len(result[1].joint)}
    if name == "analysis.grid_discretize":
        M = result.dpp.matrix
        return {"cells": M.shape[0], "matrix_mb": M.shape[0] ** 2 * M.itemsize / 2 ** 20}
    return {}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, counters]
        self.spans: list[list] = []
        self.op_counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            rec[5] = _result_counters(name, args, kwargs, result) or None
            return result

        return wrapper

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.op_counts[tracer.op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import numpy
        import scipy.linalg

        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"palmdpp.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[fn] = self._span(f"{short}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name == "palmdpp" or name.startswith("palmdpp."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in originals:
                        self._patch(mod, attr, originals[val])
        for mod, prefix in ((numpy.linalg, "linalg"), (scipy.linalg, "scipy.linalg")):
            for attr in ("eigh", "eigvalsh"):
                self._patch(mod, attr, self._span(f"{prefix}.{attr}", getattr(mod, attr)))
        self._patch(numpy.linalg, "det", self._count("linalg.det", numpy.linalg.det))

    def _patch(self, mod, attr: str, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patches):
            setattr(mod, attr, old)
        self._patches.clear()

    def per_op(self) -> dict[int, dict]:
        """Per operation: inclusive and self milliseconds, span and call counts."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[int, dict] = {}
        for i, (name, t0, t1, _, op, counters) in enumerate(self.spans):
            agg = out.setdefault(op, {"incl": Counter(), "self": Counter(),
                                      "calls": Counter(), "counters": Counter()})
            agg["incl"][name] += (t1 - t0) * 1e3
            agg["self"][name] += (t1 - t0 - child[i]) * 1e3
            agg["calls"][name] += 1
            if counters:
                agg["counters"].update({f"{name}.{k}": v for k, v in counters.items()})
        for op, counts in self.op_counts.items():
            out.setdefault(op, {"incl": Counter(), "self": Counter(),
                                "calls": Counter(), "counters": Counter()})["calls"].update(counts)
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "counters")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, rec)) for rec in self.spans],
                       "counts": {str(op): dict(c) for op, c in self.op_counts.items()}}, fh)
