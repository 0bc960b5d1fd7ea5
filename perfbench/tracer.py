"""In-memory spans around henonmorse's public functions.

The tracer replaces a function under every name a henonmorse module binds
it to, so calls made between modules (``spectral`` calling ``sturm_count``,
``bisect_eigenvalues`` calling ``sturm_count`` inside ``_kernels``) are seen
too.  Each span records (name, start, end, parent span, op id, work), where
work is the layer's own count: rows, points or eigenvalues.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, OP, WORK = range(6)


def _rows(args, kwargs, result):
    return len(args[0])


def _eigenvalues(args, kwargs, result):
    return len(result)


def _grid_points(args, kwargs, result):
    return len(result.x)


def _spectrum_meta(args, kwargs, result):
    if result is None:
        return {"ok": False}
    return {"ok": True, "n": result.meta.get("n", 0),
            "capped": bool(result.meta.get("resolution_capped", False))}


def _standard_attempt(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs.get("k", 0)
    return dict(_spectrum_meta(args, kwargs, result), full=k > 0)


# (module, function, span name, work counter, attributes)
TARGETS = (
    ("henonmorse.radial", "solve_nodal_power", "radial.solve_nodal_power",
     None, None),
    ("henonmorse.spectral", "solve_singular_spectrum",
     "spectral.solve_singular_spectrum", None, _spectrum_meta),
    ("henonmorse.spectral", "solve_standard_spectrum",
     "spectral.solve_standard_spectrum", None, _standard_attempt),
    ("henonmorse.spectral", "liouville_transform",
     "spectral.liouville_transform", _grid_points, None),
    ("henonmorse._kernels", "sturm_count", "kernels.sturm_count", _rows,
     None),
    ("henonmorse._kernels", "bisect_eigenvalues", "kernels.bisect_eigenvalues",
     _eigenvalues, None),
    ("henonmorse._kernels", "inverse_iteration", "kernels.inverse_iteration",
     _rows, None),
    ("henonmorse.oracle", "dense_oracle_spectrum",
     "oracle.dense_oracle_spectrum", None, None),
    ("henonmorse.morse", "morse_index", "morse.morse_index", None, None),
    ("henonmorse.morse", "degeneracy_scan", "morse.degeneracy_scan", None,
     None),
    ("henonmorse.cli", "main", "cli.main", None, None),
    ("henonmorse.cli", "cmd_sweep", "cli.sweep", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, op, work]
        self.attrs = {}       # span index -> dict
        self.op = None
        self._stack = []
        self._patched = []    # (module, attribute, original)

    def wrap(self, name, fn, work=None, attrs=None):
        """fn inside a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, 0]
            self.spans.append(span)
            self._stack.append(idx)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                if work is not None and result is not None:
                    span[WORK] = work(args, kwargs, result)
                if attrs is not None:
                    self.attrs[idx] = attrs(args, kwargs, result)

        return traced

    def install(self):
        """Wrap every target that exists; a renamed or deleted function is
        skipped, so its metrics read 0."""
        for modname, fname, span, work, attrs in TARGETS:
            orig = getattr(importlib.import_module(modname), fname, None)
            if orig is not None:
                self._rebind(orig, self.wrap(span, orig, work, attrs))
        radial = importlib.import_module("henonmorse.radial")
        factory = getattr(radial, "linearized_potential", None)
        if factory is not None:
            self._rebind(factory, self._potential_factory(factory))

    def _potential_factory(self, factory):
        """linearized_potential whose returned callable is traced."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("radial.potential", factory(*args, **kwargs),
                             lambda a, kw, r: int(np.size(a[0])))

        return traced_factory

    def _rebind(self, orig, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "henonmorse"
                                   or modname.startswith("henonmorse.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self, path):
        doc = {"fields": ["name", "start", "end", "parent", "op", "work"],
               "spans": self.spans,
               "attrs": {str(k): v for k, v in self.attrs.items()}}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [s[END] - s[START] - covered(children[i], s[START], s[END])
            for i, s in enumerate(spans)]


LAYER_UNITS = {"calls": "count", "points": "count", "rows": "count",
               "eigenvalues": "count", "self_s": "s"}

# span name -> the per-layer figures reported for it
LAYER_FIGURES = {
    "radial.solve_nodal_power": ("calls", "self_s"),
    "radial.potential": ("calls", "points", "self_s"),
    "spectral.solve_singular_spectrum": ("calls", "self_s"),
    "spectral.solve_standard_spectrum": ("calls", "self_s"),
    "spectral.liouville_transform": ("calls", "points", "self_s"),
    "kernels.sturm_count": ("calls", "rows", "self_s"),
    "kernels.bisect_eigenvalues": ("calls", "eigenvalues", "self_s"),
    "kernels.inverse_iteration": ("calls", "rows", "self_s"),
    "oracle.dense_oracle_spectrum": ("calls", "self_s"),
    "morse.morse_index": ("self_s",),
    "morse.degeneracy_scan": ("self_s",),
    "cli.main": ("self_s",),
    "cli.sweep": ("self_s",),
}

BYTES_PER_ROW = 16   # one float64 diagonal and one off-diagonal entry


def layer_metrics(spans, attrs):
    """Per-layer metrics as {name: (value, unit)}, derived from spans."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    work = defaultdict(int)
    busy = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[NAME]] += 1
        work[span[NAME]] += span[WORK]
        busy[span[NAME]] += own
    out = {}
    for name, figures in LAYER_FIGURES.items():
        for fig in figures:
            value = {"calls": calls[name], "self_s": busy[name]}.get(
                fig, work[name])
            out[f"{name}.{fig}"] = (value, LAYER_UNITS[fig])

    def attrs_of(name):
        return [attrs[i] for i, s in enumerate(spans)
                if s[NAME] == name and i in attrs]

    sing = attrs_of("spectral.solve_singular_spectrum")
    std = attrs_of("spectral.solve_standard_spectrum")
    out["spectral.singular.n_max"] = (
        max((a["n"] for a in sing if a["ok"]), default=0), "count")
    out["spectral.standard.n_max"] = (
        max((a["n"] for a in std if a["ok"]), default=0), "count")
    out["spectral.standard.capped"] = (
        sum(1 for a in std if a.get("capped")), "count")
    full = [a for a in std if a["full"]]
    certified = sum(1 for a in full if a["ok"])
    out["spectral.standard.full_attempts"] = (len(full), "count")
    out["spectral.standard.useful_ratio"] = (
        certified / len(full) if full else 0.0, "1")
    rows = work["kernels.sturm_count"] + work["kernels.inverse_iteration"]
    out["kernels.bytes_computed"] = (BYTES_PER_ROW * rows, "B")
    return out
