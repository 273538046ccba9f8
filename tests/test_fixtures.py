"""``synthetic_wave``'s full curve against the reference RK4 kernel."""
import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epiwave.epidemic import IntegrationError, SeirParams
from epiwave.fixtures import synthetic_wave
from rk4_reference import _daily_new_removed

# An early wave, a late low-R0 wave and a fast one.
TRUTHS = (SeirParams(0.23, 0.14, 3.0), SeirParams(0.15, 0.1, 2.0),
          SeirParams(0.6, 0.2, 5.0))
KAPPA = 10000.0
LONGEST = 1000


@pytest.fixture(scope="module")
def reference():
    """Unit-scale daily deaths of each truth over ``LONGEST`` days; a shorter
    horizon's curve is a prefix of these."""
    return _daily_new_removed(*(np.array(a) for a in zip(
        *((p.beta, p.eta, p.epsilon) for p in TRUTHS))), LONGEST)


@settings(max_examples=8, deadline=None)
@given(horizon=st.integers(14, LONGEST))
@example(horizon=14)
@example(horizon=LONGEST)
def test_full_curve_equals_reference(reference, horizon):
    start = dt.date(2020, 3, 1)
    for truth, row in zip(TRUTHS, reference):
        wave = synthetic_wave(truth, KAPPA, start, threshold=0.0, horizon_days=horizon)
        assert wave.start == start
        assert wave.values.tobytes() == (KAPPA * row[:horizon]).tobytes()


def test_blow_up_raises_integration_error():
    with pytest.raises(IntegrationError):
        synthetic_wave(SeirParams(50.0, 0.1, 100.0), KAPPA)
