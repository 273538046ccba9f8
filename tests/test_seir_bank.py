"""The grid search's bank, ``daily_removed``, and ``grid_search`` against the
reference RK4 kernel and the reference peak alignment.

Every window the bank returns must equal, bit for bit, the reference
kernel's full-horizon curve cut by ``peak_windows``; a window twice the
horizon holds every day of the curve.  Every grid cell's error and kappa
must equal ``_score`` on those reference windows.
"""
import datetime as dt
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epiwave import calibration, epidemic, fixtures, waves
from epiwave.calibration import GridSpec, grid_search
from epiwave.epidemic import daily_removed
from epiwave.series import DailyCountSeries
from rk4_reference import _daily_new_removed, peak_windows
from test_calibration import spy_on_banks, usable_cpus

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


def reference_windows(daily, observed):
    """The reference kernel's curves ``daily`` cut to the window that puts
    each peak on the observed one."""
    before_peak = int(np.argmax(observed))
    return peak_windows(daily, before_peak, len(observed) - before_peak)


def reference_scores(grid, observed, metric, horizon, step):
    b, h, x = (a.ravel() for a in np.meshgrid(
        grid.beta_values, grid.eta_values, grid.epsilon_values, indexing="ij"))
    obs = np.asarray(observed.values, float)
    windows = reference_windows(_daily_new_removed(b, h, x, horizon, step=step), obs)
    error, kappa = calibration._score(windows, obs, metric)
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
    got = daily_removed(beta, eta, epsilon, n_days, n_days, n_days, step=step)
    assert got.shape == (len(bank), 2 * n_days)
    assert np.array_equal(got, peak_windows(expected, n_days, n_days))


axes = st.tuples(st.floats(0.02, 0.6), st.floats(0.0, 0.4), st.integers(1, 4))


def grid_axis(lo, width, steps):
    return (lo, lo + width, steps) if width > 0.01 else (lo, lo, 1)


def example_wave(values):
    return DailyCountSeries(start=dt.date(2020, 3, 1), values=np.array(values, float))


RAMP = example_wave(np.arange(1.0, 21.0))  # peaks on its last day


@blow_ups_expected
@settings(max_examples=25, deadline=None)
@given(axes, axes, st.tuples(st.floats(0.2, 5.0), st.floats(0.0, 3.0),
                             st.integers(1, 3)),
       observed_waves(), st.sampled_from(STEPS),
       st.sampled_from(calibration.METRICS), st.integers(1, 160))
# horizons shorter than the window: 1 day and one day short of it
@example((0.3, 0.2, 3), (0.1, 0.05, 2), (3.0, 0.0, 1), RAMP, 0.25, "nrmse-peak", 1)
@example((0.3, 0.2, 3), (0.1, 0.05, 2), (3.0, 0.0, 1), RAMP, 0.25, "cum-mape", 19)
# observed peak on day 0, and tied observed maxima
@example((0.2, 0.3, 4), (0.1, 0.1, 2), (2.0, 2.0, 2),
         example_wave(np.linspace(50.0, 1.0, 30)), 0.05, "cum-mape", 90)
@example((0.2, 0.3, 4), (0.1, 0.1, 2), (2.0, 2.0, 2),
         example_wave([1, 4, 9, 9, 5, 9, 3, 2, 2, 1, 1, 1, 0, 0]), 0.05, "nrmse-peak", 90)
# cells too fast for the step blow up, and their windows hold NaN
@example((0.3, 0.2, 2), (0.2, 0.1, 2), (3.0, 3.0, 2), RAMP, 0.5, "nrmse-peak", 60)
def test_grid_search_equals_reference_scoring(beta, eta, epsilon, observed, step,
                                              metric, horizon):
    grid = GridSpec(grid_axis(*beta), grid_axis(*eta), grid_axis(*epsilon))
    report = grid_search(observed, grid, metric, grid.n_cells,
                         horizon_days=horizon, step=step)
    assert_report_matches(
        report, reference_scores(grid, observed, metric, horizon, step))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_banks_around_the_chunk_size(offset, monkeypatch):
    # One beta axis at eta 0.2 spans R0 0.1-4: cells that never take off,
    # cells near threshold and fast waves share the banks.
    n = calibration._CHUNK + offset
    grid = GridSpec((0.02, 0.8, n), (0.2, 0.2, 1), (3.0, 3.0, 1))
    b, h, x = grid.beta_values, np.full(n, 0.2), np.full(n, 3.0)
    horizon, step = 90, 0.25
    dd = _daily_new_removed(b, h, x, horizon, step=step)
    assert np.array_equal(daily_removed(b, h, x, horizon, horizon, horizon, step=step),
                          peak_windows(dd, horizon, horizon))

    wave = dd[3 * n // 4, 5:60] * 1e5
    observed = DailyCountSeries(start=dt.date(2020, 3, 1), values=wave)
    usable_cpus(monkeypatch, 1)
    banks = spy_on_banks(monkeypatch)
    for metric in calibration.METRICS:
        error, kappa = calibration._score(reference_windows(dd, wave), wave, metric)
        expected = {(bi, 0.2, 3.0): (e, k) for bi, e, k in
                    zip(b.tolist(), error.tolist(), kappa.tolist())}
        report = grid_search(observed, grid, metric, n, horizon_days=horizon,
                             step=step)
        assert_report_matches(report, expected)
    # top_k covers every bank, so none is screened in float32.
    assert {dtype for _, dtype in banks} == {"float64"}


def test_float32_bank_follows_the_float64_bank():
    """A float32 bank holds float32 windows on the same peak days.  A day's
    increment is a difference of R, which float32 holds to about 6e-8, so
    the windows agree to an absolute 2e-6 (4e-7 measured), not relatively."""
    n = 64
    bank = np.linspace(0.15, 0.6, n), np.linspace(0.05, 0.2, n), np.full(n, 3.0)
    exact = daily_removed(*bank, 240, 30, 40)
    screened = daily_removed(*bank, 240, 30, 40, dtype=np.float32)
    assert screened.dtype == np.float32
    assert np.array_equal(np.argmax(screened, axis=1), np.argmax(exact, axis=1))
    assert np.allclose(screened, exact, rtol=0.0, atol=2e-6)


@blow_ups_expected
@pytest.mark.parametrize("offset", [-1, 0, 1])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), step=st.sampled_from(STEPS), n_days=st.integers(1, 120))
def test_banks_around_the_float_width(offset, data, step, n_days):
    # Banks of 9-11 cells, narrow enough that a step costs numpy's dispatch.
    n = 10 + offset
    bank = data.draw(st.lists(cells(), min_size=n, max_size=n))
    beta, eta, epsilon = (np.array(a) for a in zip(*bank))
    expected = _daily_new_removed(beta, eta, epsilon, n_days, step=step)
    got = daily_removed(beta, eta, epsilon, n_days, n_days, n_days, step=step)
    assert np.array_equal(got, peak_windows(expected, n_days, n_days), equal_nan=True)


# Cells that stop early, and cells that peak late; all stable at step 0.25.
early_cells = st.tuples(st.floats(0.3, 0.95), st.floats(0.05, 0.5),
                        st.floats(0.2, 5.0)).map(lambda c: (c[0] * c[1], *c[1:]))
late_cells = st.tuples(st.floats(3.0, 6.0), st.floats(0.05, 0.1),
                       st.floats(0.2, 5.0)).map(lambda c: (c[0] * c[1], *c[1:]))


@settings(max_examples=20, deadline=None)
@given(st.lists(early_cells, min_size=2, max_size=3),
       st.lists(late_cells, min_size=9, max_size=10),
       st.sampled_from((0.05, 0.25)), st.integers(0, 30), st.integers(1, 30))
def test_bank_compacted_onto_the_float_path(early, late, step, before_peak,
                                            after_peak):
    # 11-13 cells, compacted to at most 10 once the early cells stop.
    bank = early + late
    beta, eta, epsilon = (np.array(a) for a in zip(*bank))
    n_days = 200
    got = daily_removed(beta, eta, epsilon, n_days, before_peak, after_peak,
                        step=step)
    full = _daily_new_removed(beta, eta, epsilon, n_days, step=step)
    assert np.array_equal(got, peak_windows(full, before_peak, after_peak))


def widths_stepped(bank, n_days, before_peak, after_peak, step):
    """The width of the block a bank steps on each day it integrates."""
    widths = []
    stepper = epidemic._rk4_stepper

    def recording(y, rates, step):
        advance = stepper(y, rates, step)

        def one_day(n_steps):
            widths.append(y.shape[1])
            advance(n_steps)

        return one_day

    beta, eta, epsilon = (np.array(a) for a in zip(*bank))
    with mock.patch.object(epidemic, "_rk4_stepper", recording):
        daily_removed(beta, eta, epsilon, n_days, before_peak, after_peak, step=step)
    return widths


@settings(max_examples=10, deadline=None)
@given(st.lists(early_cells, min_size=2, max_size=3),
       st.lists(late_cells, min_size=9, max_size=10),
       st.integers(0, 30), st.integers(1, 30))
def test_a_cell_leaves_the_bank_on_the_day_it_stops(early, late, before_peak,
                                                    after_peak):
    """A cell's stop day depends on the cell alone, so a bank of one cell
    integrates it for as many days as any bank does.  After each day, the
    next day's block holds exactly the cells still running."""
    bank = early + late
    window = 200, before_peak, after_peak
    days = [len(widths_stepped([cell], *window, 0.25)) for cell in bank]
    assert widths_stepped(bank, *window, 0.25) == [
        sum(d > day for d in days) for day in range(max(days))]


def test_single_cell_bank_matches_its_row_in_a_bank():
    beta, eta, epsilon = [0.3, 0.23, 0.1], [0.1, 0.14, 0.2], [2.0, 3.0, 4.0]
    together = daily_removed(beta, eta, epsilon, 200, 30, 40)
    for i in range(3):
        alone = daily_removed(beta[i], eta[i], epsilon[i], 200, 30, 40)
        assert np.array_equal(alone[0], together[i])


@blow_ups_expected
@settings(max_examples=40, deadline=None)
@given(st.lists(cells(), min_size=0, max_size=12), st.sampled_from(STEPS),
       st.integers(1, 120), st.integers(0, 120), st.integers(1, 120))
# epsilon < eta: I dips before it takes off, so I' < 0 alone is not past the peak
@example(bank=[(1.5, 0.5, 0.2)], step=0.25, n_days=60, before_peak=0, after_peak=1)
# the second cell is too fast for the step: RK4 blows up on day 8, after its
# curve's first maximum, and its peak is its first NaN day; the first cell
# stops early, so the bank is compacted
@example(bank=[(0.1, 0.5, 3.0),
               (0.6912666139291984, 0.8128476673190487, 6.5556565340905255)],
         step=0.5, n_days=60, before_peak=3, after_peak=1)
# a horizon shorter than the window
@example(bank=[(0.3, 0.1, 3.0), (0.1, 0.2, 4.0)], step=0.25, n_days=5,
         before_peak=10, after_peak=20)
# E and I both fall from the start: the peak is on day 0
@example(bank=[(0.1, 0.5, 0.2), (0.3, 0.1, 3.0)], step=0.05, n_days=40,
         before_peak=5, after_peak=5)
# every increment underflows to 0: the maximum is tied on every day
@example(bank=[(5e-324, 5e-324, 5e-324), (0.3, 0.1, 3.0)], step=0.25, n_days=30,
         before_peak=4, after_peak=6)
# an empty bank
@example(bank=[], step=0.05, n_days=10, before_peak=3, after_peak=2)
def test_early_stop_keeps_argmax_and_window(bank, step, n_days, before_peak,
                                            after_peak):
    beta, eta, epsilon = np.array(bank, float).reshape(-1, 3).T
    full = _daily_new_removed(beta, eta, epsilon, n_days, step=step)
    got = daily_removed(beta, eta, epsilon, n_days, before_peak, after_peak, step=step)
    assert np.array_equal(got, peak_windows(full, before_peak, after_peak),
                          equal_nan=True)


@pytest.mark.parametrize("metric", calibration.METRICS)
def test_criterion_7_fits_equal_reference_cell_by_cell(metric):
    """The benchmark's pipeline fits: each synthetic-istanbul wave on the
    criterion-7 grid at the default horizon."""
    excess = fixtures.synthetic_istanbul()
    segments = waves.segment_waves(excess)
    assert len(segments) == 4
    grid = GridSpec((0.2, 0.3, 8), (0.05, 0.18, 8), (2.0, 4.0, 3))
    for seg in segments:
        piece = excess.window(seg.start_date, seg.end_date)
        observed = DailyCountSeries(piece.start, np.maximum(piece.values, 0.0))
        horizon = calibration.default_horizon(len(observed))
        report = grid_search(observed, grid, metric, grid.n_cells)
        assert_report_matches(report, reference_scores(
            grid, observed, metric, horizon, epidemic.DEFAULT_STEP))


def test_bank_memory_does_not_grow_with_the_horizon():
    """A bank holds its cells' windows, not their horizons: 200 cells with a
    40-day window over 2,000 days stay below one 200 x 2,000 array."""
    n = 200
    bank = np.linspace(0.15, 0.6, n), np.full(n, 0.1), np.full(n, 3.0)
    tracemalloc.start()
    try:
        windows = daily_removed(*bank, 2000, 15, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert windows.shape == (n, 40)
    assert peak < n * 2000 * 8


def test_empty_bank_has_no_rows():
    assert daily_removed([], [], [], 5, 2, 3).shape == (0, 5)


def test_rejects_step_not_dividing_a_day():
    with pytest.raises(ValueError, match="divide"):
        daily_removed(0.23, 0.14, 3.0, 10, 10, 10, step=0.3)


@pytest.mark.parametrize("before_peak, after_peak", [(-1, 5), (5, 0)])
def test_rejects_a_window_without_its_peak_day(before_peak, after_peak):
    with pytest.raises(ValueError, match="before_peak"):
        daily_removed(0.23, 0.14, 3.0, 10, before_peak, after_peak)


@pytest.mark.parametrize("days", [
    (0, 5, 5), (-5, 5, 5), (10.0, 5, 5), (10, 1.5, 5), (10, 5, 2.0),
    (10, 5.0, 5.0), (10, "5", 5),
], ids=repr)
def test_rejects_unusable_day_counts(days):
    with pytest.raises(ValueError, match="n_days, before_peak and after_peak"):
        daily_removed(0.23, 0.14, 3.0, *days)


def test_rejects_mismatched_parameter_arrays():
    with pytest.raises(ValueError):
        daily_removed([0.2, 0.3], [0.1], [3.0, 3.0], 10, 10, 10)
