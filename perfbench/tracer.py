"""Span recorder that wraps macrobell's public functions from outside.

``Tracer.install()`` replaces every public function and public method of
the layer modules with a wrapper that records a span (name, start, end,
parent) on ``time.perf_counter_ns``.  References other macrobell modules
hold to the same function objects are rebound too, so calls across
modules are seen.  A few private helpers that carry the sampling,
jackknife and histogram work are wrapped under their own names.  Hooks
read counts off arguments and return values at the same boundaries.

Spans stay in memory; ``summary()`` reduces them once the invocation
ends.  Only the thread that installed the tracer records spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

from checks import gamma_of, rel_dev, witness_expected

LAYERS = ("basis", "states", "stokes", "witnesses", "measures", "truncation",
          "simulate", "cli")

#: private helpers wrapped under a span name of their own
PRIVATE = {
    ("simulate", "_sample_series_counts"): "simulate.sample_series",
    ("simulate", "_jackknife_series"): "simulate.jackknife",
    ("simulate", "_conditional_width"): "simulate.conditional_width",
}


class Tracer:
    def __init__(self):
        #: [name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self.counters: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        self._hooks = {
            "basis.occupations": self._hook_occupations,
            "states.dense": self._hook_dense,
            "stokes.combination_matrix": self._hook_combination_matrix,
            "witnesses.evaluate_witness": self._hook_evaluate_witness,
            "simulate.sample_series": self._hook_sample_series,
            "simulate.conditional_width": self._hook_conditional_width,
            "measures.gain_scan": self._hook_gain_scan,
            "truncation.dimension_scan": self._hook_dimension_scan,
        }

    # -- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer modules' public callables and rebind every reference."""
        replaced = {}
        for short in LAYERS:
            mod = importlib.import_module(f"macrobell.{short}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    label = PRIVATE.get((short, attr))
                    if label is None and attr.startswith("_"):
                        continue
                    replaced[id(obj)] = self.wrap(label or f"{short}.{attr}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self.wrap(f"{short}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name == "macrobell" or name.startswith("macrobell."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(mod, attr, replaced[id(obj)])

    # -- hooks: counts read at the layer boundaries ------------------------------

    def _max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _hook_occupations(self, args, kwargs, result):
        self._max("basis.occupations_bytes", result.nbytes)

    def _hook_dense(self, args, kwargs, result):
        self._max("states.dense_bytes", result.nbytes)

    def _hook_combination_matrix(self, args, kwargs, result):
        self.counters["stokes.csr_nnz"] += int(result.nnz)

    def _hook_evaluate_witness(self, args, kwargs, result):
        state = args[1] if len(args) > 1 else kwargs["state"]
        if state.label is not None and state.gamma > 0.0:
            expected = witness_expected(result.kind.value, state.label.value, state.gamma)
            self._max("witnesses.max_rel_dev", rel_dev(result.value, expected))

    def _hook_sample_series(self, args, kwargs, result):
        self.counters["simulate.pulses_sampled"] += int(result.shape[0])

    def _hook_conditional_width(self, args, kwargs, result):
        partners, bin_width = args[1], args[2]
        bins = partners // bin_width
        occupied = np.bincount(bins - bins.min())
        self.counters["simulate.bins_used"] += int(np.count_nonzero(occupied >= 2))
        self.counters["simulate.bins_skipped"] += int(np.count_nonzero(occupied < 2))

    def _hook_gain_scan(self, args, kwargs, result):
        for row in result:
            self.counters["measures.spectrum_entries"] += int(row["cutoff"]) + 1
            exact = np.expm1(4.0 * gamma_of(row["n0"]))
            self._max("measures.negativity_rel_dev", rel_dev(row["negativity"], exact))

    def _hook_dimension_scan(self, args, kwargs, result):
        self.counters["truncation.points"] += len(result)

    # -- reduction ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds and call count.

        Inclusive time counts only the outermost span of a recursive
        chain of the same name; self time is a span's duration minus the
        durations of its direct children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0, 0])
            if not self._has_ancestor(parent, name):
                entry[0] += end - start
            entry[1] += end - start - child_ns[i]
            entry[2] += 1
        return {
            "spans": {name: {"s": s * 1e-9, "self_s": self_ns * 1e-9, "calls": calls}
                      for name, (s, self_ns, calls) in totals.items()},
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
