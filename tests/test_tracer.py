"""The benchmark's tracer reads its work counts from epiwave's parameters by
name.  A renamed ``t_end``, ``step``, ``observed``, ``grid`` or
``horizon_days`` would otherwise fail only in a benchmark run."""
import datetime as dt
import importlib.util
from pathlib import Path

import numpy as np

from epiwave import DailyCountSeries, GridSpec, SeirParams, calibration, epidemic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_steps_and_cells():
    tracer = load_tracer()
    recorder = tracer.Tracer()
    wave = DailyCountSeries(dt.date(2020, 3, 1),
                            np.concatenate([np.arange(1.0, 11.0), np.arange(10.0, 0, -1)]))
    grid = GridSpec((0.2, 0.3, 4), (0.1, 0.15, 4), (2.0, 4.0, 12))
    recorder.install()
    try:
        epidemic.integrate("seir", SeirParams(0.3, 0.1, 3.0), 10, 0.25)
        calibration.grid_search(wave, grid, horizon_days=30)
    finally:
        recorder.uninstall()
    counts = tracer.layer_metrics(recorder.spans, 1)
    assert counts["epidemic.rk4_steps"] == 10 * 4
    assert counts["calibration.cells"] == 192
    assert counts["calibration.cell_steps"] == 192 * 30 * 20
