"""Spans around the calls into each contactloci layer, recorded from outside.

``Tracer`` replaces each traced function at the module attribute where
its caller looks it up (``contactloci.cli.solve_weights``,
``contactloci.weights.is_negative_definite``, ...) and restores the
originals on exit.  Spans stay in memory; counts are read off the objects
the traced calls return.  The program's code is not changed.
"""

from __future__ import annotations

import importlib
import time


def _weights_counts(w) -> dict:
    values = [v for _, v in w.entries]
    return {"weights.exc_divisors": sum(1 for v in values if v), "weights.weight_sum": sum(values)}


def _fit_counts(fit) -> dict:
    return {"jets.fits": 1, "jets.fits_conclusive": int(fit.conclusive)}


# (module, attribute, span name, counts from the returned object)
TARGETS = (
    ("contactloci.cli", "parse_polynomial", "polys.parse", None),
    ("contactloci.cli", "resolve_plane_curve", "curves.resolve",
     lambda r: {"curves.blowups": len(r[1].blowups)}),
    ("contactloci.cli", "separate", "separation.separate",
     lambda r: {"separation.subdivisions": len(r[1])}),
    ("contactloci.model", "validate_configuration", "model.validate", None),
    ("contactloci.cli", "solve_weights", "weights.solve", _weights_counts),
    ("contactloci.weights", "is_negative_definite", "weights.definite", None),
    ("contactloci.cli", "validate_weights", "weights.validate", None),
    ("contactloci.covers", "covers_for", "covers.covers", None),
    ("contactloci.spectral", "covers_for", "covers.covers", None),
    ("contactloci.cli", "contributing_set", "spectral.contributing", None),
    ("contactloci.spectral", "contributing_set", "spectral.contributing", None),
    ("contactloci.cli", "e1_page", "spectral.page",
     lambda p: {"spectral.page_entries": len(p.entries)}),
    ("contactloci.lefschetz", "e1_page", "spectral.page",
     lambda p: {"spectral.page_entries": len(p.entries)}),
    ("contactloci.cli", "degeneration_analysis", "spectral.degeneration", None),
    ("contactloci.cli", "zeta_factorization", "lefschetz.zeta", None),
    ("contactloci.cli", "cross_check_euler", "lefschetz.cross_check", None),
    ("contactloci.cli", "contact_count", "jets.count", lambda r: {"jets.count_nodes": r.nodes}),
    ("contactloci.cli", "stratified_count", "jets.strata",
     lambda r: {"jets.strata_nodes": r.nodes, "jets.strata_cells": len(r.strata)}),
    ("contactloci.cli", "interpolate_chi", "jets.fit", _fit_counts),
)

JOB_SPAN = "cli.main"


class _SympyView:
    """Stands in for ``sympy`` inside ``contactloci.curves`` so that only the
    resolver's own ``factor_list`` calls are traced."""

    def __init__(self, module, factor_list):
        self._module = module
        self.factor_list = factor_list

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans [name, start, end, parent index, job id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
            if counter is not None:
                rec[5] = counter(result)
            return result

        return traced

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr), counter))
        curves = importlib.import_module("contactloci.curves")
        sympy = curves.sympy
        self._patch(curves, "sympy", _SympyView(sympy, self.wrap("curves.factor", sympy.factor_list)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass: summed span time per name (``<name>_s``,
    nested spans included), summed counts, and the job span's self time."""
    out: dict[str, float] = {}
    for name, start, end, _, _, counts in spans:
        if name != JOB_SPAN:
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
        for key, value in (counts or {}).items():
            out[key] = out.get(key, 0) + value
    out["cli.self_s"] = self_times(spans).get(JOB_SPAN, 0.0)
    out["cli.calls"] = sum(1 for s in spans if s[0] == JOB_SPAN)
    return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for n, (name, start, end, *_) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child_time[n])
    return out
