"""Spans around the public functions of prodgeo's modules, recorded from
the benchmark's side so that nothing under src/ changes.

``Tracer.install`` replaces every public function of jets, models,
surface, curvature and harness, wherever the package refers to it, by a
wrapper that records a span: a name (the layer), a start, an end and the
span that was open when it started. When a span closes, its duration is
added to its parent's child time, so a layer's self time is its span's
duration minus the time its child spans cover. Self time and call count
are summed per layer as spans close; the first KEEP_SPANS spans are also
held in memory and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("jets", "models", "surface", "curvature", "harness")
#: Spans held in memory; the rest are only summed, to bound the memory.
KEEP_SPANS = 50_000

_VERDICTS = {"returns_to_scale", "ves_theorem_verdict", "kadiyala_is_developable"}


def _flag(name, position):
    """Reads a boolean keyword that may also be passed by position."""
    def get(args, kwargs):
        return kwargs.get(name, args[position] if len(args) > position else False)
    return get


def layer_of(module: str, name: str):
    """The layer a function's spans count toward, as a function of its call
    arguments (a few functions serve two layers depending on a flag)."""
    if module == "jets":
        return lambda a, k: "jets"
    if module == "models":
        if name.endswith(("_eval", "_value")):
            return lambda a, k: "models.eval"
        layer = "models.domain" if "domain" in name else "models.other"
        return lambda a, k: layer
    if module == "surface":
        layer = "surface.classify" if name == "classify_sign" else "surface.forms"
        return lambda a, k: layer
    if module == "curvature":
        if name in _VERDICTS:
            return lambda a, k: "curvature.verdict"
        if name == "kadiyala_deng_terms":
            return lambda a, k: "curvature.dual_form"
        if name in ("ves_denf", "kadiyala_T2"):
            second = _flag("grouped" if name == "ves_denf" else "collected", 3)
            return lambda a, k: ("curvature.dual_form" if second(a, k)
                                 else "curvature.closed")
        return lambda a, k: "curvature.closed"
    # harness
    if name == "build_grid_report":
        return lambda a, k: "harness.grid"
    if name == "emit_grid_report":
        fmt = _flag("fmt", 1)
        return lambda a, k: f"harness.emit_{fmt(a, k) or 'csv'}"
    if name.startswith("run_verify"):
        return lambda a, k: "harness.verify"
    if name.startswith("random_") and name.endswith("_params"):
        return lambda a, k: "harness.sampler"
    return lambda a, k: "harness.other"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # [span id, child seconds] per open span
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer):
        stack = self._stack

        def traced(*args, **kwargs):
            name = layer(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self.self_s[name] += took - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += took
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((span_id, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wraps each public function and rebinds every reference to it
        held by the package's modules."""
        mods = [getattr(self.package, m) for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(fn)] = self._wrap(fn, layer_of(short, name))
        for mod in mods + [self.package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as out:
            json.dump({"fields": ["id", "layer", "start_s", "end_s", "parent"],
                       "spans": self.spans,
                       "total_spans": self._next_id}, out)
