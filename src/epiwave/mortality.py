"""Excess-mortality construction: smoothing, multi-year baseline, subtraction.

Expected deaths on each day of a span, which may cross years, are a weighted
combination of the same calendar day in prior years (default 40/30/20/5/5
percent, most recent year first).  Excess mortality is reported minus
expected on the overlap.
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
    """Value by (month, day); a missing Feb 29 is the mean of Feb 28 and Mar 1."""
    table: dict[tuple[int, int], float] = {}
    for day, value in zip(history.dates(), history.values):
        key = (day.month, day.day)
        if key in table:
            raise SeriesError(f"history spans more than one year (repeats {key})")
        table[key] = float(value)
    if (2, 29) not in table and (2, 28) in table and (3, 1) in table:
        table[(2, 29)] = 0.5 * (table[(2, 28)] + table[(3, 1)])
    return table


def expected_deaths(
    histories: list[DailyCountSeries],
    weights: BaselineWeights,
    first: dt.date,
    last: dt.date,
) -> DailyCountSeries:
    """Weighted per-calendar-day baseline for each day of [first, last].

    Alignment is by (month, day), not day-of-year index, so the span may
    cross years.  A leap day in the span with no leap-day history uses the
    mean of that history's Feb 28 and Mar 1; a history's leap day is ignored
    outside leap years.
    """
    if len(histories) != len(weights.weights):
        raise ValueError(f"{len(weights.weights)} weights for {len(histories)} histories")
    tables = [_month_day_map(h) for h in histories]
    days = [first + dt.timedelta(days=i) for i in range((last - first).days + 1)]
    try:
        values = [sum(w * t[(d.month, d.day)] for w, t in zip(weights.weights, tables))
                  for d in days]
    except KeyError as exc:
        month, day = exc.args[0]
        raise SeriesError(
            f"history missing month-day {month:02d}-{day:02d}") from None
    return DailyCountSeries(start=first, values=values)


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
