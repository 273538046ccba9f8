"""Synthetic datasets for demos and tests.

The Istanbul mortality registry cannot be redistributed, so a bundled
generator produces a four-wave excess series whose per-wave rise/fall
durations and death totals echo the published 2020-2021 bookkeeping.
"""
from __future__ import annotations

import datetime as dt

import numpy as np

from .epidemic import SeirParams, daily_deaths, integrate
from .series import DailyCountSeries, ExcessSeries

# (start date, rise days, fall days, total deaths); the fourth wave is an
# invented late-2021 wave so demos exercise the four-wave path.
ISTANBUL_WAVES = (
    (dt.date(2020, 3, 15), 26, 43, 4451.0),
    (dt.date(2020, 10, 22), 35, 49, 11187.0),
    (dt.date(2021, 3, 11), 44, 45, 8308.0),
    (dt.date(2021, 10, 1), 30, 40, 6000.0),
)


def triangle_excess() -> ExcessSeries:
    """Symmetric tent 0 -> 100 -> 0 over the 41 days from 2020-03-01, padded
    with 10 zero days on both sides."""
    ramp = np.linspace(0.0, 100.0, 21)
    tent = np.concatenate([ramp, ramp[-2::-1]])
    pad = np.zeros(10)
    return ExcessSeries(start=dt.date(2020, 2, 20),
                        values=np.concatenate([pad, tent, pad]))


def synthetic_istanbul() -> ExcessSeries:
    """Four tent-shaped waves on a zero baseline, 2020-01-01 onward."""
    start = dt.date(2020, 1, 1)
    last_end = max(w[0] + dt.timedelta(days=w[1] + w[2]) for w in ISTANBUL_WAVES)
    n_days = (last_end - start).days + 31
    values = np.zeros(n_days)
    for wave_start, rise, fall, total in ISTANBUL_WAVES:
        tent = np.concatenate(
            [np.linspace(0.0, 1.0, rise + 1), np.linspace(1.0, 0.0, fall + 1)[1:]]
        )
        tent *= total / tent.sum()
        i0 = (wave_start - start).days
        values[i0 : i0 + tent.size] += tent
    return ExcessSeries(start=start, values=values)


def synthetic_wave(
    params: SeirParams,
    kappa: float,
    start_date: dt.date = dt.date(2020, 3, 1),
    threshold: float = 5.0,
    horizon_days: int = 730,
) -> DailyCountSeries:
    """Model-generated daily-deaths wave, sliced where the curve exceeds
    ``threshold`` deaths/day around its peak.  Used as a known-truth
    calibration target.  Raises IntegrationError when the curve blows up."""
    dd = daily_deaths(integrate("seir", params, horizon_days), kappa)
    peak = int(np.argmax(dd))
    above = dd >= threshold
    lo = peak
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = peak
    while hi < dd.size - 1 and above[hi + 1]:
        hi += 1
    return DailyCountSeries(start=start_date + dt.timedelta(days=lo),
                            values=dd[lo : hi + 1])


# The builder of each excess series that --fixture names.
FIXTURES = {"synthetic-istanbul": synthetic_istanbul, "triangle": triangle_excess}
