"""Span tracing of esdscan from outside the package.

``Tracer.install`` wraps every public function of every esdscan module and
puts the wrapper into each esdscan module namespace that holds the function,
so calls between modules and within one module are both recorded. Nothing
under ``src/`` changes, and ``uninstall`` puts the original objects back.

Each call records a span [function, start, end, parent, counts]. A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import time
from collections import defaultdict

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("channels.apply_product.self_s", "s"),
    ("channels.product_kraus.self_s", "s"),
    ("channels.apply_product.states", "count"),
    ("channels.apply_product.pairs", "count"),
    ("channels.apply_product.bytes_computed", "bytes"),
    ("channels.kraus_operators.self_s", "s"),
    ("concurrence.wootters_sigmas.self_s", "s"),
    ("concurrence.wootters_sigmas.calls", "count"),
    ("concurrence.wootters_sigmas.states", "count"),
    ("concurrence.xstate_concurrence.calls", "count"),
    ("concurrence.xstate_concurrence.self_s", "s"),
    ("spectra.scan_grid.self_s", "s"),
    ("spectra.scan_grid.records", "count"),
    ("spectra.discrepant_ratio", "ratio"),
    ("spectra.numeric_spectrum.total_s", "s"),
    ("spectra.closed_form_spectrum.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.bytes_out", "bytes"),
    ("zonescan.sample_curve.total_s", "s"),
    ("zonescan.bisect_s", "s"),
    ("zonescan.bisect_evals", "count"),
    ("zonescan.edges", "count"),
    ("zonescan.evals_per_edge", "evals/edge"),
    ("states.validate_density.self_s", "s"),
    ("states.validate_density.calls", "count"),
    ("channels.kraus_set.self_s", "s"),
    ("channels.apply_product_channel.self_s", "s"),
    ("states.mems.self_s", "s"),
    ("linalg.kron2.self_s", "s"),
    ("trace.overhead_s", "s"),
)
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes"))

# The outermost call of one of these is one concurrence evaluation.
EVALUATIONS = frozenset({
    "concurrence.concurrence",
    "concurrence.xstate_concurrence",
    "spectra.concurrence_from_spectrum",
})
COMPLEX_BYTES = 16


def _apply_product_counts(args, out):
    states = math.prod(out.shape[:-2])
    pairs = states * args["operators"].shape[-3] ** 2
    # computed from array sizes: the expanded pairs and their conjugate, the
    # input states and the output states, 16 complex entries per 4x4 matrix
    entries = 2 * pairs * 16 + args["rho"].size + states * 16
    return {"states": states, "pairs": pairs, "bytes_computed": entries * COMPLEX_BYTES}


def _wootters_counts(args, out):
    return {"states": math.prod(out.shape[:-1])}


def _scan_grid_counts(args, out):
    return {"records": len(out), "cells": len(args["gammas"]) * len(args["strengths"])}


def _find_zones_counts(args, out):
    start = args["cfg"].strength_min
    edges = sum((z.death != start) + (z.rebirth is not None) for z in out.zones)
    return {"edges": edges}


METERS = {
    "channels.apply_product": _apply_product_counts,
    "concurrence.wootters_sigmas": _wootters_counts,
    "spectra.scan_grid": _scan_grid_counts,
    "zonescan.find_zones": _find_zones_counts,
}


def package_modules(package) -> list:
    """The package and every one of its submodules, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def public_functions(modules) -> dict:
    """Each function defined in one of ``modules`` under a public name -> 'module.name'."""
    found = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                found[obj] = f"{short}.{name}"
    return found


def traced_attributes(modules) -> list[str]:
    """Names in ``modules`` that currently hold a tracing wrapper."""
    return [f"{mod.__name__}.{name}" for mod in modules
            for name, obj in vars(mod).items() if getattr(obj, "__traced__", False)]


class Tracer:
    """Wrappers for every public function of ``modules``, installed on demand."""

    def __init__(self, modules):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.meter_errors = 0
        self._stack = [-1]
        self._modules = modules
        self._wrappers = {}
        for fn, qualname in public_functions(modules).items():
            self.names.append(qualname)
            self._wrappers[fn] = self._wrap(len(self.names) - 1, fn, METERS.get(qualname))
        self._patched: list[tuple] = []

    def _wrap(self, fid: int, fn, meter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if meter else None

        def wrapper(*args, **kwargs):
            rec = [fid, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sig is not None:
                try:
                    rec[4] = meter(sig.bind(*args, **kwargs).arguments, out)
                except Exception:  # a renamed argument must not stop the run
                    self.meter_errors += 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__traced__ = True
        return wrapper

    def install(self) -> None:
        """Put the wrapper into every module namespace that holds the original."""
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, name, self._wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def totals(self) -> dict:
        """Per-function sums over the recorded spans.

        Keys: ``self_s``, ``total_s``, ``calls`` and ``counts`` (meter
        counts as 'module.function.count'), each a mapping; plus
        ``bisect_evals`` and ``sampled_in_zones``, the evaluations and the
        ``sample_curve`` time under ``find_zones``.
        """
        spans, names = self.spans, self.names
        n = len(spans)
        child = [0.0] * n
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        under_zones = [False] * n
        under_sample = [False] * n
        under_eval = [False] * n
        bisect_evals = 0
        sampled_in_zones = 0.0
        for k, (fid, start, end, parent, meter) in enumerate(spans):
            name = names[fid]
            dur = end - start
            self_s[name] += dur - child[k]
            total_s[name] += dur
            calls[name] += 1
            if meter:
                for key, value in meter.items():
                    counts[f"{name}.{key}"] += value
            up_zones = parent >= 0 and under_zones[parent]
            up_sample = parent >= 0 and under_sample[parent]
            up_eval = parent >= 0 and under_eval[parent]
            if name == "zonescan.sample_curve" and up_zones and not up_sample:
                sampled_in_zones += dur
            if name in EVALUATIONS and not up_eval and up_zones and not up_sample:
                bisect_evals += 1
            under_zones[k] = up_zones or name == "zonescan.find_zones"
            under_sample[k] = up_sample or name == "zonescan.sample_curve"
            under_eval[k] = up_eval or name in EVALUATIONS
        return {"self_s": self_s, "total_s": total_s, "calls": calls, "counts": counts,
                "bisect_evals": bisect_evals, "sampled_in_zones": sampled_in_zones}

    def take(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call, then forget them."""
        t = self.totals()
        self.spans.clear()
        self_s, total_s, calls, counts = t["self_s"], t["total_s"], t["calls"], t["counts"]
        bisect_evals = t["bisect_evals"]
        edges = counts["zonescan.find_zones.edges"]
        cells = counts["spectra.scan_grid.cells"]
        return {
            "channels.apply_product.self_s": self_s["channels.apply_product"],
            "channels.product_kraus.self_s": self_s["channels.product_kraus"],
            "channels.apply_product.states": counts["channels.apply_product.states"],
            "channels.apply_product.pairs": counts["channels.apply_product.pairs"],
            "channels.apply_product.bytes_computed":
                counts["channels.apply_product.bytes_computed"],
            "channels.kraus_operators.self_s": self_s["channels.kraus_operators"],
            "concurrence.wootters_sigmas.self_s": self_s["concurrence.wootters_sigmas"],
            "concurrence.wootters_sigmas.calls": calls["concurrence.wootters_sigmas"],
            "concurrence.wootters_sigmas.states": counts["concurrence.wootters_sigmas.states"],
            "concurrence.xstate_concurrence.calls": calls["concurrence.xstate_concurrence"],
            "concurrence.xstate_concurrence.self_s": self_s["concurrence.xstate_concurrence"],
            "spectra.scan_grid.self_s": self_s["spectra.scan_grid"],
            "spectra.scan_grid.records": counts["spectra.scan_grid.records"],
            "spectra.discrepant_ratio":
                counts["spectra.scan_grid.records"] / cells if cells else 0.0,
            "spectra.numeric_spectrum.total_s": total_s["spectra.numeric_spectrum"],
            "spectra.closed_form_spectrum.self_s": self_s["spectra.closed_form_spectrum"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.main.calls": calls["cli.main"],
            "zonescan.sample_curve.total_s": total_s["zonescan.sample_curve"],
            "zonescan.bisect_s": total_s["zonescan.find_zones"] - t["sampled_in_zones"],
            "zonescan.bisect_evals": bisect_evals,
            "zonescan.edges": edges,
            "zonescan.evals_per_edge": bisect_evals / edges if edges else 0.0,
            "states.validate_density.self_s": self_s["states.validate_density"],
            "states.validate_density.calls": calls["states.validate_density"],
            "channels.kraus_set.self_s": self_s["channels.kraus_set"],
            "channels.apply_product_channel.self_s": self_s["channels.apply_product_channel"],
            "states.mems.self_s": self_s["states.mems"],
            "linalg.kron2.self_s": self_s["linalg.kron2"],
        }
