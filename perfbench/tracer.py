"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` wraps every public module-level function of each epiwave
layer and rebinds every name that points at it, in every loaded epiwave
module, so calls through ``from .x import f`` bindings (``forecast.integrate``,
``cli.load_excess``, ...) are seen too.  Functions are found by name at install
time: a function a later refactor removes simply records no spans.

A span is ``name, start, end, parent``.  Spans stay in memory until the run
ends; ``layer_metrics`` turns them into the per-layer figures.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import epiwave

# The modules of src/epiwave, one layer each.
LAYERS = (
    "series", "mortality", "waves", "epidemic", "calibration",
    "forecast", "finalsize", "fixtures", "cli",
)

# Per-function busy-time metrics: metric name -> span names it sums.  The
# cli.<command> spans are recorded by the benchmark around each cli.main call.
FUNCTION_METRICS = {
    "calibration.grid_search_s": ("calibration.grid_search",),
    "calibration.fit_error_s": ("calibration.fit_error",),
    "epidemic.integrate_s": ("epidemic.integrate",),
    "epidemic.daily_deaths_s": ("epidemic.daily_deaths",),
    "forecast.predict_wave_s": ("forecast.predict_wave",),
    "fixtures.synthetic_wave_s": ("fixtures.synthetic_wave",),
    "series.load_s": ("series.load_series", "series.load_excess"),
    "series.save_s": ("series.save_series",),
    "mortality.expected_deaths_s": ("mortality.expected_deaths",),
    "mortality.trailing_average_7_s": ("mortality.trailing_average_7",),
    "mortality.excess_mortality_s": ("mortality.excess_mortality",),
    "waves.segment_waves_s": ("waves.segment_waves",),
    "finalsize.solve_final_size_s": ("finalsize.solve_final_size",),
    "cli.excess_s": ("cli.excess",),
    "cli.waves_s": ("cli.waves",),
    "cli.fit_s": ("cli.fit",),
    "cli.forecast_s": ("cli.forecast",),
    "cli.finalsize_s": ("cli.finalsize",),
    "cli.simulate_s": ("cli.simulate",),
}

COUNT_METRICS = (
    "calibration.cells", "calibration.cell_steps", "epidemic.rk4_steps",
    "forecast.curves", "waves.found", "cli.nonzero_exits",
)


def _grid_search_counts(args, result):
    grid = args.get("grid") or epiwave.GridSpec()
    horizon = args.get("horizon_days") or epiwave.calibration.default_horizon(
        len(args["observed"])
    )
    cells = grid.n_cells
    steps_per_day = round(1.0 / args["step"])
    return {
        "calibration.cells": cells,
        "calibration.cell_steps": cells * horizon * steps_per_day,
    }


def _integrate_counts(args, result):
    return {"epidemic.rk4_steps": int(args["t_end"] / args["step"] + 1e-9)}


# Work counts taken at a layer boundary from the call's arguments and result.
COUNTERS = {
    "calibration.grid_search": _grid_search_counts,
    "epidemic.integrate": _integrate_counts,
    "forecast.predict_wave": lambda args, band: {"forecast.curves": 3},
    "waves.segment_waves": lambda args, found: {"waves.found": len(found)},
    "cli.main": lambda args, code: {"cli.nonzero_exits": int(code != 0)},
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}_s", f"{layer}.calls", f"{layer}.self_s"]
    names += list(FUNCTION_METRICS) + list(COUNT_METRICS)
    names += ["calibration.ns_per_cell_step", "epidemic.us_per_step",
              "trace.overhead_pct"]
    return names


class Tracer:
    """Records spans while installed; a no-op recorder otherwise."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._counting = False

    @property
    def recording(self) -> bool:
        return bool(self._patched) and not self._counting

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield None
            return
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "counts": {}, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None and record is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._counting = True  # epiwave calls made by a counter are not spans
                try:
                    record["counts"] = counter(bound.arguments, result)
                finally:
                    self._counting = False
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"epiwave.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "epiwave" or n.startswith("epiwave.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched = []


def layer_metrics(spans: list[dict], n_ops: int) -> dict[str, float]:
    """Per-layer busy, self and call figures plus work counts.

    Spans under a ``bench.op`` root are averaged over the ``n_ops`` traced
    operations; spans under any other root (set-up, checks) count once.
    Busy time counts a layer's outermost spans only; self time is a span's
    duration minus its direct children's; calls count entries into a layer
    from outside it.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    once = dict.fromkeys(per_layer_names(), 0.0)
    per_op = dict.fromkeys(per_layer_names(), 0.0)
    by_span = {n: m for m, names in FUNCTION_METRICS.items() for n in names}
    for i, s in enumerate(spans):
        ancestors = []
        p = s["parent"]
        while p is not None:
            ancestors.append(spans[p])
            p = spans[p]["parent"]
        root = ancestors[-1] if ancestors else s
        out = per_op if root["name"] == "bench.op" else once
        layer = s["name"].split(".")[0]
        duration = s["end"] - s["start"]
        if layer in LAYERS:
            if not any(a["name"].split(".")[0] == layer for a in ancestors):
                out[f"{layer}_s"] += duration
            if not ancestors or ancestors[0]["name"].split(".")[0] != layer:
                out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child_time[i]
        metric = by_span.get(s["name"])
        if metric and not any(a["name"] == s["name"] for a in ancestors):
            out[metric] += duration
        for key, value in s["counts"].items():
            out[key] += value
    # Sums divided once, so that whole counts stay whole.
    out = {k: once[k] + per_op[k] / n_ops for k in once}
    if out["calibration.cell_steps"]:
        out["calibration.ns_per_cell_step"] = (
            1e9 * out["calibration.grid_search_s"] / out["calibration.cell_steps"])
    if out["epidemic.rk4_steps"]:
        out["epidemic.us_per_step"] = (
            1e6 * out["epidemic.integrate_s"] / out["epidemic.rk4_steps"])
    return out
