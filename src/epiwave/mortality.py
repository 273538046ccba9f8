"""Excess-mortality construction: smoothing, multi-year baseline, subtraction.

Expected deaths for a target year are a weighted combination of matched
calendar days from prior years (default 40/30/20/5/5 percent, most recent
year first).  Excess mortality is reported minus expected on the overlap.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .series import DailyCountSeries, DailySeries, ExcessSeries, SeriesError

# Most recent history year first: 40/30/20/5/5 percent.
DEFAULT_WEIGHTS = (0.40, 0.30, 0.20, 0.05, 0.05)


@dataclass(frozen=True)
class BaselineWeights:
    """Per-history weights, paired with the history list by position."""

    weights: tuple[float, ...] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if any(not 0.0 <= w <= 1.0 for w in self.weights):
            raise ValueError("weights must lie in [0, 1]")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1.0")


def trailing_average_7(series: DailySeries) -> DailySeries:
    """7-day trailing mean; the first 6 days are dropped (no partial windows)."""
    if len(series) < 7:
        raise SeriesError("trailing_average_7 needs at least 7 days")
    smoothed = np.convolve(series.values, np.full(7, 1.0 / 7.0), mode="valid")
    return type(series)(start=series.start + dt.timedelta(days=6), values=smoothed)


def _month_day_map(history: DailyCountSeries) -> dict[tuple[int, int], float]:
    table: dict[tuple[int, int], float] = {}
    for day, value in zip(history.dates(), history.values):
        key = (day.month, day.day)
        if key in table:
            raise SeriesError(f"history spans more than one year (repeats {key})")
        table[key] = float(value)
    return table


def expected_deaths(
    histories: list[DailyCountSeries],
    weights: BaselineWeights,
    target_year: int,
) -> DailyCountSeries:
    """Weighted per-calendar-day baseline for ``target_year``.

    Alignment is by (month, day), not day-of-year index.  A leap day in the
    target year with no leap-day history uses the mean of that history's
    Feb 28 and Mar 1; a history's leap day is ignored for non-leap targets.
    """
    if len(histories) != len(weights.weights):
        raise SeriesError(
            f"{len(weights.weights)} weights but {len(histories)} histories"
        )
    tables = [_month_day_map(h) for h in histories]

    def lookup(table, key):
        if key in table:
            return table[key]
        if key == (2, 29):
            try:
                return 0.5 * (table[(2, 28)] + table[(3, 1)])
            except KeyError:
                pass
        raise SeriesError(f"history missing month-day {key[0]:02d}-{key[1]:02d}")

    start = dt.date(target_year, 1, 1)
    n_days = (dt.date(target_year + 1, 1, 1) - start).days
    out = np.zeros(n_days)
    for i in range(n_days):
        day = start + dt.timedelta(days=i)
        key = (day.month, day.day)
        out[i] = sum(w * lookup(t, key) for w, t in zip(weights.weights, tables))
    return DailyCountSeries(start=start, values=out)


def excess_mortality(
    reported: DailySeries, expected: DailySeries
) -> ExcessSeries:
    """Pointwise reported minus expected over the date overlap."""
    first = max(reported.start, expected.start)
    last = min(reported.end, expected.end)
    if last < first:
        raise SeriesError("reported and expected series do not overlap")
    r = reported.window(first, last)
    e = expected.window(first, last)
    return ExcessSeries(start=first, values=r.values - e.values)
