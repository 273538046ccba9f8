"""Next-wave prediction bands from previously fitted wave parameters.

The central curve uses the arithmetic mean of the prior parameters; the
lower and upper curves use the R0-minimizing (min beta, max eta) and
R0-maximizing (max beta, min eta) corners of the prior envelope.  Epsilon
and kappa take their prior means in all three bands.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .calibration import FitCandidate, average_top_candidates
from .epidemic import SeirParams, daily_deaths, integrate
from .series import DailyCountSeries

MIN_HORIZON_DAYS = 14


@dataclass(frozen=True)
class ForecastBand:
    central: DailyCountSeries
    lower: DailyCountSeries
    upper: DailyCountSeries
    assumptions: dict


def predict_wave(
    priors: list[FitCandidate],
    start_date: dt.date,
    horizon_days: int,
) -> ForecastBand:
    """Central/lower/upper daily-deaths curves over the forecast horizon.

    Raises IntegrationError when a curve blows up (rates too fast for the
    step).
    """
    if not priors:
        raise ValueError("need at least one prior candidate")
    if horizon_days < MIN_HORIZON_DAYS:
        raise ValueError(f"horizon must be >= {MIN_HORIZON_DAYS} days")

    mean = average_top_candidates(priors, len(priors))
    central_p, kappa = mean.params, mean.kappa
    epsilon = central_p.epsilon
    betas = [c.params.beta for c in priors]
    etas = [c.params.eta for c in priors]
    lower_p = SeirParams(min(betas), max(etas), epsilon)
    upper_p = SeirParams(max(betas), min(etas), epsilon)

    curves = np.array([daily_deaths(integrate("seir", p, horizon_days), kappa)
                       for p in (lower_p, central_p, upper_p)])
    # Repair any pointwise ordering violations across the three curves.
    lower_vals = curves.min(axis=0)
    upper_vals = curves.max(axis=0)

    def describe(p: SeirParams) -> dict:
        return {
            "beta": p.beta,
            "eta": p.eta,
            "epsilon": p.epsilon,
            "kappa": kappa,
            "r0": p.beta / p.eta,
        }

    return ForecastBand(
        central=DailyCountSeries(start=start_date, values=curves[1]),
        lower=DailyCountSeries(start=start_date, values=lower_vals),
        upper=DailyCountSeries(start=start_date, values=upper_vals),
        assumptions={
            "central": describe(central_p),
            "lower": describe(lower_p),
            "upper": describe(upper_p),
            "n_priors": len(priors),
        },
    )
