"""The benchmark's tracer reads its work counts from epiwave's parameters by
name.  A renamed ``t_end``, ``step``, ``observed``, ``grid`` or
``horizon_days``, or a renamed ``calibration.default_horizon``, would
otherwise fail only in a benchmark run."""
import datetime as dt
import importlib.util
from pathlib import Path

import numpy as np

from epiwave import DailyCountSeries, GridSpec, SeirParams, calibration, epidemic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PER_DAY = epidemic.steps_per_day(epidemic.DEFAULT_STEP)  # a fit's steps a day


def traced_counts(*runs) -> dict:
    """The tracer's work counts over ``runs``, each called once."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for run in runs:
            run()
    finally:
        recorder.uninstall()
    return tracer.layer_metrics(recorder.spans, 1)


def test_tracer_counts_steps_and_cells():
    wave = DailyCountSeries(dt.date(2020, 3, 1),
                            np.concatenate([np.arange(1.0, 11.0), np.arange(10.0, 0, -1)]))
    grid = GridSpec((0.2, 0.3, 4), (0.1, 0.15, 4), (2.0, 4.0, 12))
    counts = traced_counts(
        lambda: epidemic.integrate("seir", SeirParams(0.3, 0.1, 3.0), 10, 0.25),
        lambda: calibration.grid_search(wave, grid, horizon_days=30))
    assert counts["epidemic.rk4_steps"] == 10 * 4
    assert counts["calibration.cells"] == 192
    assert counts["calibration.cell_steps"] == 192 * 30 * PER_DAY


def test_tracer_counts_the_default_horizon():
    """The pipeline workload's fits leave ``horizon_days`` unset."""
    wave = DailyCountSeries(dt.date(2020, 3, 1), np.arange(1.0, 15.0))
    grid = GridSpec((0.2, 0.3, 2), (0.1, 0.15, 2), (2.0, 4.0, 3))
    counts = traced_counts(lambda: calibration.grid_search(wave, grid, horizon_days=None))
    assert calibration.default_horizon(14) == 240
    assert counts["calibration.cell_steps"] == 12 * 240 * PER_DAY
