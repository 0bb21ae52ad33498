"""Spans around the public functions of each sectorlab layer.

The program is traced from outside: every public function of a layer module
is wrapped, and each name under which another module looks it up is patched
to the wrapper (``analysis.find_roots``, ``operators.apply_sequence``,
``cli.render_scene``, the package re-exports, ...).  A call made while
another wrapped call is running becomes its child span, so nested calls such
as ``exp_poly_principal_zeros`` -> ``find_roots`` split their time between
the two layers.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("analysis", "roots", "poly", "operators", "geometry", "cli",
          "svgplot")


class Tracer:
    """Records one span per wrapped call, plus counters taken at the same
    boundaries: solved degrees, solver failures, campaign trial outcomes."""

    def __init__(self):
        # each span: [op, layer, name, start, end, parent, error]
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            span = [self.op, layer, name, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if layer == "roots" and name == "find_roots":
                    counters["roots.degree_sum"] += args[0].coeffs.size - 1
                    if span[6] == "NonConvergenceError":
                        counters["roots.nonconverged"] += 1
            if name in ("verify_theorem", "search_counterexample"):
                counters["analysis.trials"] += result.trials
                counters["analysis.skipped"] += result.skipped
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Patch every lookup site of every public layer function."""
        package = importlib.import_module("sectorlab")
        modules = {layer: importlib.import_module(f"sectorlab.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer, fn)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def self_times(self) -> dict:
        """Per layer: the summed span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[5] >= 0:
                child[span[5]] += span[4] - span[3]
        out = dict.fromkeys(LAYERS, 0.0)
        for span, covered in zip(self.spans, child):
            out[span[1]] += span[4] - span[3] - covered
        return out

    def top_level_time(self) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[5] < 0)

    def calls(self) -> Counter:
        return Counter(span[1] for span in self.spans)

    def durations_ms(self, layer: str) -> list:
        return [(s[4] - s[3]) * 1e3 for s in self.spans if s[1] == layer]

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON array per span:
        [index, op, layer, name, start_s, end_s, parent, error]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, *s]) + "\n")
