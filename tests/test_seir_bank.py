"""``SeirBank`` and ``grid_search`` against the reference RK4 kernel.

Without a window the bank's daily increments must equal the reference bit for
bit.  With its exact early stop, every grid cell's error and kappa must equal
the reference kernel's full-horizon curves scored by ``_score``.
"""
import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epiwave import calibration
from epiwave.calibration import GridSpec, grid_search
from epiwave.epidemic import SeirBank
from epiwave.series import DailyCountSeries
from rk4_reference import _daily_new_removed

STEPS = (0.05, 0.25, 0.5)
# Cells too fast for a coarse step blow up, in both kernels alike.
blow_ups_expected = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")
R0_RANGES = ((0.3, 0.95), (0.97, 1.03), (3.0, 6.0))  # R0 < 1, R0 ~ 1, R0 > 3


@st.composite
def cells(draw):
    lo, hi = draw(st.sampled_from(R0_RANGES))
    r0 = draw(st.floats(lo, hi))
    eta = draw(st.floats(0.05, 0.5))
    epsilon = draw(st.floats(0.2, 5.0))
    return r0 * eta, eta, epsilon


@st.composite
def observed_waves(draw):
    """A tent of random rise and fall with multiplicative noise, peak anywhere."""
    rise = draw(st.integers(0, 40))
    fall = draw(st.integers(max(0, 13 - rise), 40))
    tent = np.concatenate([np.linspace(0.0, 1.0, rise + 1),
                           np.linspace(1.0, 0.0, fall + 1)[1:]])
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 500.0 * tent * noise.uniform(0.8, 1.2, tent.size)
    return DailyCountSeries(start=dt.date(2020, 3, 1), values=values)


def reference_scores(grid, observed, metric, horizon, step):
    b, h, x = (a.ravel() for a in np.meshgrid(
        grid.beta_values, grid.eta_values, grid.epsilon_values, indexing="ij"))
    dd = _daily_new_removed(b, h, x, horizon, step=step)
    error, kappa = calibration._score(dd, np.asarray(observed.values, float), metric)
    return {(bi, hi, xi): (e, k)
            for bi, hi, xi, e, k in zip(b.tolist(), h.tolist(), x.tolist(),
                                        error.tolist(), kappa.tolist())}


def assert_report_matches(report, expected):
    assert len(report.candidates) == len(expected)
    for c in report.candidates:
        p = c.params
        assert np.array_equal((c.error_pct, c.kappa),
                              expected[(p.beta, p.eta, p.epsilon)], equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(st.lists(cells(), min_size=1, max_size=12), st.sampled_from(STEPS),
       st.integers(1, 120))
def test_daily_increments_equal_reference(bank, step, n_days):
    beta, eta, epsilon = (np.array(a) for a in zip(*bank))
    expected = _daily_new_removed(beta, eta, epsilon, n_days, step=step)
    got = SeirBank(beta, eta, epsilon).daily_removed(n_days, step=step)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


axes = st.tuples(st.floats(0.02, 0.6), st.floats(0.0, 0.4), st.integers(1, 4))


def grid_axis(lo, width, steps):
    return (lo, lo + width, steps) if width > 0.01 else (lo, lo, 1)


@blow_ups_expected
@settings(max_examples=25, deadline=None)
@given(axes, axes, st.tuples(st.floats(0.2, 5.0), st.floats(0.0, 3.0),
                             st.integers(1, 3)),
       observed_waves(), st.sampled_from(STEPS),
       st.sampled_from(calibration.METRICS), st.integers(0, 80))
def test_grid_search_equals_reference_scoring(beta, eta, epsilon, observed, step,
                                              metric, extra_days):
    grid = GridSpec(grid_axis(*beta), grid_axis(*eta), grid_axis(*epsilon))
    horizon = len(observed) + extra_days
    report = grid_search(observed, grid, metric, grid.n_cells,
                         horizon_days=horizon, step=step)
    assert_report_matches(
        report, reference_scores(grid, observed, metric, horizon, step))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_banks_around_the_chunk_size(offset):
    # One beta axis at eta 0.2 spans R0 0.1-4: cells that never take off,
    # cells near threshold and fast waves share the banks.
    n = calibration._CHUNK + offset
    grid = GridSpec((0.02, 0.8, n), (0.2, 0.2, 1), (3.0, 3.0, 1))
    b, h, x = grid.beta_values, np.full(n, 0.2), np.full(n, 3.0)
    horizon, step = 90, 0.25
    dd = _daily_new_removed(b, h, x, horizon, step=step)
    assert np.array_equal(SeirBank(b, h, x).daily_removed(horizon, step=step), dd)

    wave = dd[3 * n // 4, 5:60] * 1e5
    observed = DailyCountSeries(start=dt.date(2020, 3, 1), values=wave)
    for metric in calibration.METRICS:
        error, kappa = calibration._score(dd, wave, metric)
        expected = {(bi, 0.2, 3.0): (e, k) for bi, e, k in
                    zip(b.tolist(), error.tolist(), kappa.tolist())}
        report = grid_search(observed, grid, metric, n, horizon_days=horizon,
                             step=step)
        assert_report_matches(report, expected)


def test_single_cell_bank_matches_its_row_in_a_bank():
    beta, eta, epsilon = [0.3, 0.23, 0.1], [0.1, 0.14, 0.2], [2.0, 3.0, 4.0]
    together = SeirBank(beta, eta, epsilon).daily_removed(200, after_peak=40)
    for i in range(3):
        alone = SeirBank(beta[i], eta[i], epsilon[i]).daily_removed(200, after_peak=40)
        assert np.array_equal(alone[0], together[i])


@blow_ups_expected
@settings(max_examples=40, deadline=None)
@given(st.lists(cells(), min_size=1, max_size=12), st.sampled_from(STEPS),
       st.integers(1, 120), st.integers(1, 120))
# epsilon < eta: I dips before it takes off, so I' < 0 alone is not past the peak
@example(bank=[(1.5, 0.5, 0.2)], step=0.25, n_days=60, after_peak=1)
# the second cell is too fast for the step: RK4 blows up on day 8, after its
# curve's first maximum; the first cell stops early, so the bank is compacted
@example(bank=[(0.1, 0.5, 3.0),
               (0.6912666139291984, 0.8128476673190487, 6.5556565340905255)],
         step=0.5, n_days=60, after_peak=1)
def test_early_stop_keeps_argmax_and_window(bank, step, n_days, after_peak):
    beta, eta, epsilon = (np.array(a) for a in zip(*bank))
    full = SeirBank(beta, eta, epsilon).daily_removed(n_days, step=step)
    stopped = SeirBank(beta, eta, epsilon).daily_removed(
        n_days, step=step, after_peak=after_peak)
    for f, s in zip(full, stopped):
        peak = int(np.argmax(f))
        assert int(np.argmax(s)) == peak
        window = min(peak + after_peak, n_days)
        assert np.array_equal(s[:window], f[:window], equal_nan=True)
        differs = (s != f) & ~(np.isnan(s) & np.isnan(f))
        assert np.all(s[differs] == 0.0)


def test_rejects_step_not_dividing_a_day():
    with pytest.raises(ValueError, match="divide"):
        SeirBank(0.23, 0.14, 3.0).daily_removed(10, step=0.3)


@pytest.mark.parametrize("seed", [-1e-3, 0.6])
def test_rejects_seed_outside_the_state_space(seed):
    with pytest.raises(ValueError, match="seed"):
        SeirBank(0.23, 0.14, 3.0).daily_removed(10, seed=seed)


def test_rejects_mismatched_parameter_arrays():
    with pytest.raises(ValueError):
        SeirBank([0.2, 0.3], [0.1], [3.0, 3.0])
