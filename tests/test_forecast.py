import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rk4_reference
from epiwave.calibration import FitCandidate
from epiwave.epidemic import IntegrationError, SeirParams, daily_deaths
from epiwave.forecast import predict_wave

START = dt.date(2021, 11, 1)


def candidate(beta, eta, epsilon=3.0, kappa=10000.0):
    return FitCandidate(
        params=SeirParams(beta, eta, epsilon),
        kappa=kappa,
        r0=beta / eta,
        error_pct=1.0,
    )


PRIORS = [candidate(0.20, 0.15, 2.5, 8000.0), candidate(0.26, 0.10, 3.5, 12000.0),
          candidate(0.23, 0.12, 4.0, 5000.0)]
LONGEST = 1000


def test_single_prior_collapses_bands():
    band = predict_wave([candidate(0.23, 0.14)], START, 90)
    assert np.array_equal(band.lower.values, band.central.values)
    assert np.array_equal(band.upper.values, band.central.values)
    assert band.central.start == START
    assert len(band.central) == 90


def test_central_r0_is_mean_beta_over_mean_eta():
    priors = [
        candidate(0.230520067, 0.14194734),
        candidate(0.228682277, 0.142128916),
    ]
    band = predict_wave(priors, START, 120)
    mean_beta = (0.230520067 + 0.228682277) / 2
    mean_eta = (0.14194734 + 0.142128916) / 2
    assert band.assumptions["central"]["r0"] == pytest.approx(
        mean_beta / mean_eta, abs=1e-12
    )
    assert band.assumptions["central"]["r0"] == pytest.approx(1.616, abs=0.001)


def test_band_ordering_pointwise():
    priors = [candidate(0.20, 0.15), candidate(0.26, 0.10), candidate(0.23, 0.12)]
    band = predict_wave(priors, START, 150)
    assert np.all(band.lower.values <= band.central.values)
    assert np.all(band.central.values <= band.upper.values)
    assert band.upper.values.sum() >= band.lower.values.sum()


def test_higher_transmission_raises_peak():
    priors = [candidate(0.20, 0.12), candidate(0.24, 0.12)]
    band = predict_wave(priors, START, 200)
    assert band.upper.values.max() > band.lower.values.max()


def test_corner_assumptions_recorded():
    priors = [candidate(0.20, 0.15), candidate(0.26, 0.10)]
    band = predict_wave(priors, START, 90)
    assert band.assumptions["lower"]["beta"] == 0.20
    assert band.assumptions["lower"]["eta"] == 0.15
    assert band.assumptions["upper"]["beta"] == 0.26
    assert band.assumptions["upper"]["eta"] == 0.10
    assert band.assumptions["n_priors"] == 2
    assert (
        band.assumptions["lower"]["r0"]
        <= band.assumptions["central"]["r0"]
        <= band.assumptions["upper"]["r0"]
    )


def test_identical_priors_identical_bands():
    priors = [candidate(0.23, 0.14), candidate(0.23, 0.14)]
    band = predict_wave(priors, START, 90)
    assert np.array_equal(band.lower.values, band.upper.values)


def test_curves_equal_reference_runs():
    band = predict_wave(PRIORS, START, 240)
    curves = {}
    for name in ("lower", "central", "upper"):
        a = band.assumptions[name]
        traj = rk4_reference.integrate(
            "seir", rk4_reference.standard_start("seir"),
            SeirParams(a["beta"], a["eta"], a["epsilon"]), 240)
        curves[name] = daily_deaths(traj, a["kappa"])
    stacked = np.vstack([curves["lower"], curves["central"], curves["upper"]])
    assert band.central.values.tobytes() == curves["central"].tobytes()
    assert band.lower.values.tobytes() == stacked.min(axis=0).tobytes()
    assert band.upper.values.tobytes() == stacked.max(axis=0).tobytes()


@pytest.fixture(scope="module")
def reference():
    """Daily deaths of the lower, central and upper bands over ``LONGEST``
    days from the reference kernel; a shorter horizon's are a prefix."""
    a = predict_wave(PRIORS, START, 14).assumptions
    rates = [[a[name][key] for name in ("lower", "central", "upper")]
             for key in ("beta", "eta", "epsilon")]
    return a["central"]["kappa"] * rk4_reference._daily_new_removed(*rates, LONGEST)


@settings(max_examples=8, deadline=None)
@given(horizon=st.integers(14, LONGEST))
@example(horizon=14)
@example(horizon=LONGEST)
def test_curves_equal_reference_kernel(reference, horizon):
    band = predict_wave(PRIORS, START, horizon)
    curves = reference[:, :horizon]
    assert band.central.values.tobytes() == curves[1].tobytes()
    assert band.lower.values.tobytes() == curves.min(axis=0).tobytes()
    assert band.upper.values.tobytes() == curves.max(axis=0).tobytes()


def test_blow_up_is_reported():
    with pytest.raises(IntegrationError):
        predict_wave([candidate(0.23, 0.14, epsilon=1e5)], START, 90)


def test_argument_validation():
    with pytest.raises(ValueError):
        predict_wave([], START, 90)
    with pytest.raises(ValueError):
        predict_wave([candidate(0.23, 0.14)], START, 7)
