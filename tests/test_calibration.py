import concurrent.futures
import datetime as dt
import inspect
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import epiwave
from epiwave import calibration
from epiwave.cli import main
from epiwave.calibration import (
    METRICS,
    FitCandidate,
    GridSpec,
    average_top_candidates,
    fit_error,
    grid_search,
    read_fit_report,
)
from epiwave.epidemic import (DEFAULT_STEP, IntegrationError, SeirParams, daily_deaths,
                              daily_removed, integrate)
from epiwave.fixtures import synthetic_istanbul, synthetic_wave
from epiwave.series import DailyCountSeries, SeriesError
from epiwave.waves import segment_waves

TRUTH = SeirParams(beta=0.23, eta=0.14, epsilon=3.0)
KAPPA = 10000.0


@pytest.fixture(scope="module")
def wave():
    return synthetic_wave(TRUTH, kappa=KAPPA)


SMALL_GRID = GridSpec(
    beta_range=(0.22, 0.24, 5),  # 0.005 resolution straddling the truth
    eta_range=(0.13, 0.15, 5),
    epsilon_range=(3.0, 3.0, 1),
)


class TestGridSpec:
    def test_defaults_shape(self):
        g = GridSpec()
        assert g.n_cells == 200 * 150 * 7
        assert np.allclose(g.epsilon_values, [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])

    def test_grid_search_defaults_to_a_frozen_instance(self):
        default = inspect.signature(grid_search).parameters["grid"].default
        assert default == GridSpec()

    def test_single_step_axis_pins_min(self):
        g = GridSpec(epsilon_range=(3.0, 3.0, 1))
        assert g.epsilon_values.tolist() == [3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(beta_range=(0.3, 0.2, 10))
        with pytest.raises(ValueError):
            GridSpec(eta_range=(0.0, 0.2, 10))
        with pytest.raises(ValueError):
            GridSpec(epsilon_range=(1.0, 2.0, 0))

    @pytest.mark.parametrize("axis", [(np.inf, np.inf, 1), (0.1, np.inf, 3),
                                      (np.nan, 0.2, 1)])
    def test_non_finite_bounds_rejected(self, axis):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(epsilon_range=axis)

    @pytest.mark.parametrize("steps", [2.5, 3.0, np.float64(4.0)])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an int"):
            GridSpec(beta_range=(0.15, 0.35, steps))
        assert GridSpec(beta_range=(0.15, 0.35, np.int64(4))).n_cells == 4 * 150 * 7


class TestFitError:
    def test_self_fit_is_zero(self, wave):
        error, kappa = fit_error(TRUTH, wave)
        assert error < 1e-9
        assert kappa == pytest.approx(KAPPA, rel=1e-9)

    def test_one_percent_noise_scores_near_one(self, wave):
        peak = wave.values.max()
        noise = 0.01 * peak * np.resize([1.0, -1.0], len(wave))
        if len(wave) % 2:
            noise[-1] = 0.0  # keep the perturbation zero-sum
        noisy = DailyCountSeries(start=wave.start, values=wave.values + noise)
        error, _ = fit_error(TRUTH, noisy)
        assert error == pytest.approx(1.0, abs=0.1)

    def test_scale_invariance_of_nrmse_peak(self, wave):
        base, kappa_base = fit_error(TRUTH, wave)
        scaled = DailyCountSeries(start=wave.start, values=3.5 * wave.values)
        error, kappa = fit_error(TRUTH, scaled)
        assert error == pytest.approx(base, abs=1e-9)
        assert kappa == pytest.approx(3.5 * kappa_base, rel=1e-9)

    def test_cum_mape_self_fit_zero(self, wave):
        error, _ = fit_error(TRUTH, wave, metric="cum-mape")
        assert error < 1e-9

    def test_rejects_short_or_empty_waves(self, wave):
        short = DailyCountSeries(start=wave.start, values=wave.values[:10])
        with pytest.raises(ValueError, match="14 days"):
            fit_error(TRUTH, short)
        zero = DailyCountSeries(start=wave.start, values=np.zeros(30))
        with pytest.raises(ValueError, match="all zero"):
            fit_error(TRUTH, zero)

    def test_unknown_metric(self, wave):
        with pytest.raises(ValueError, match="metric"):
            fit_error(TRUTH, wave, metric="rms")


class TestGridSearch:
    def test_known_truth_recovery(self, wave):
        report = grid_search(wave, SMALL_GRID, top_k=5)
        best = report.candidates[0]
        assert best.params.beta == pytest.approx(TRUTH.beta, abs=0.005)
        assert best.params.eta == pytest.approx(TRUTH.eta, abs=0.005)
        assert best.error_pct < 1e-9
        assert best.kappa == pytest.approx(KAPPA, rel=1e-6)

    def test_report_sorted_with_consistent_r0(self, wave):
        report = grid_search(wave, SMALL_GRID, top_k=10)
        errors = [c.error_pct for c in report.candidates]
        assert errors == sorted(errors)
        for c in report.candidates:
            assert abs(c.r0 - c.params.beta / c.params.eta) <= 1e-12

    def test_single_cell_grid(self, wave):
        grid = GridSpec(
            beta_range=(0.23, 0.23, 1),
            eta_range=(0.14, 0.14, 1),
            epsilon_range=(3.0, 3.0, 1),
        )
        report = grid_search(wave, grid, top_k=10)
        assert len(report.candidates) == 1
        assert report.candidates[0].error_pct < 1e-9

    def test_blown_up_cells_score_inf_without_warnings(self, wave):
        # epsilon * step = 5000 lies far outside RK4's stability region.
        grid = GridSpec((0.22, 0.24, 2), (0.13, 0.15, 2), (3.0, 1e5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = grid_search(wave, grid, top_k=grid.n_cells)
            errors = [c.error_pct for c in report.candidates]
            assert np.isfinite(errors[:4]).all() and np.isinf(errors[4:]).all()
            assert {c.params.epsilon for c in report.candidates[4:]} == {1e5}
            with pytest.raises(IntegrationError, match="no grid cell"):
                grid_search(wave, GridSpec(grid.beta_range, grid.eta_range,
                                           (1e5, 1e5, 1)))

    def test_overflowed_window_scores_inf(self, tmp_path):
        """A cell too fast for the step overflows to an inf day inside its
        window; it scores as a blow-up, not NaN, and the other cell keeps its
        score in the scan and in a report that reads back."""
        short = DailyCountSeries(dt.date(2020, 1, 1),
                                 [1, 2, 3, 4, 5, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1])
        fast = 62.241560390097526
        assert fit_error(SeirParams(0.3, 0.1, fast), short, horizon_days=2) == (
            np.inf, 0.0)
        grid = GridSpec((0.3, 0.3, 1), (0.1, 0.1, 1), (3.0, fast, 2))
        report = grid_search(short, grid, horizon_days=2)
        slow = fit_error(SeirParams(0.3, 0.1, 3.0), short, horizon_days=2)[0]
        assert np.isfinite(slow) and report.beta_scan == [(0.3, slow)]
        assert [(c.error_pct, c.kappa) for c in report.candidates][1] == (np.inf, 0.0)
        report.to_csv(tmp_path / "fit_report.csv")
        assert [c.error_pct for c in read_fit_report(tmp_path / "fit_report.csv")] == [
            slow, np.inf]

    def test_scans_are_surface_minima(self, wave):
        # Three betas and two etas, so that a swapped axis shows; the
        # epsilon = 1e5 cells blow up and score inf.
        grid = GridSpec((0.22, 0.24, 3), (0.13, 0.15, 2), (3.0, 1e5, 2))
        report = grid_search(wave, grid, top_k=grid.n_cells)
        surface = report.surface
        assert surface.shape == (3, 2, 2) and np.isinf(surface[:, :, 1]).all()
        axes = grid.beta_values.tolist(), grid.eta_values.tolist()
        for c in report.candidates:
            i, j = axes[0].index(c.params.beta), axes[1].index(c.params.eta)
            k = grid.epsilon_values.tolist().index(c.params.epsilon)
            assert surface[i, j, k] == c.error_pct
        assert report.beta_scan == [(b, surface[i].min())
                                    for i, b in enumerate(axes[0])]
        assert report.eta_scan == [(e, surface[:, j].min())
                                   for j, e in enumerate(axes[1])]

    def test_tie_break_is_lexicographic(self, wave, monkeypatch):
        # force every cell to the same score; ranking must fall back to
        # (beta, eta, epsilon) order
        import epiwave.calibration as calibration

        def flat_score(model_dd, observed, metric):
            n = model_dd.shape[0]
            return np.full(n, 1.0), np.ones(n)

        monkeypatch.setattr(calibration, "_score", flat_score)
        grid = GridSpec(
            beta_range=(0.20, 0.30, 2),
            eta_range=(0.10, 0.15, 2),
            epsilon_range=(3.0, 4.0, 2),
        )
        report = grid_search(wave, grid, top_k=8)
        keys = [
            (c.params.beta, c.params.eta, c.params.epsilon)
            for c in report.candidates
        ]
        assert keys == sorted(keys)

    def test_determinism_bit_identical(self, wave, tmp_path):
        a = grid_search(wave, SMALL_GRID, top_k=10)
        b = grid_search(wave, SMALL_GRID, top_k=10)
        a.to_csv(tmp_path / "a.csv")
        b.to_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_error_scans_cover_axes(self, wave):
        report = grid_search(wave, SMALL_GRID)
        assert [v for v, _ in report.beta_scan] == SMALL_GRID.beta_values.tolist()
        assert [v for v, _ in report.eta_scan] == SMALL_GRID.eta_values.tolist()
        best_beta = min(report.beta_scan, key=lambda p: p[1])[0]
        assert best_beta == pytest.approx(TRUTH.beta, abs=0.005)

    def test_kappa_closure(self, wave):
        report = grid_search(wave, SMALL_GRID, top_k=10)
        obs_total = wave.values.sum()
        for c in report.candidates:
            error, kappa = fit_error(c.params, wave)
            assert kappa == pytest.approx(c.kappa, rel=1e-12)
            # total-deaths matching is what defines kappa
            scaled_error, unit_kappa = fit_error(
                c.params,
                DailyCountSeries(start=wave.start, values=wave.values / obs_total),
            )
            assert scaled_error == pytest.approx(error, abs=1e-9)

    @pytest.mark.parametrize("metric", METRICS)
    def test_fit_error_equals_grid_search_row(self, wave, metric):
        report = grid_search(wave, SMALL_GRID, metric, top_k=SMALL_GRID.n_cells)
        assert len(report.candidates) == SMALL_GRID.n_cells
        for c in report.candidates:
            assert fit_error(c.params, wave, metric) == (c.error_pct, c.kappa)

    def test_top_k_validation(self, wave):
        with pytest.raises(ValueError):
            grid_search(wave, SMALL_GRID, top_k=0)

    @pytest.mark.parametrize("setting", [
        {"metric": "bogus"}, {"step": 0.3},
        {"top_k": 2.5}, {"top_k": float("nan")}, {"top_k": 0},
    ])
    def test_bad_setting_fails_before_any_bank(self, wave, monkeypatch, setting):
        banks = spy_on_banks(monkeypatch)
        with pytest.raises(ValueError):
            grid_search(wave, SMALL_GRID, **setting)
        assert banks == []

    @pytest.mark.parametrize("horizon", [0, -5, 2.5])
    def test_horizon_must_be_a_positive_int(self, wave, monkeypatch, horizon):
        banks = spy_on_banks(monkeypatch)
        for run in (lambda: grid_search(wave, SMALL_GRID, horizon_days=horizon),
                    lambda: fit_error(TRUTH, wave, horizon_days=horizon)):
            with pytest.raises(ValueError, match="horizon_days"):
                run()
        assert banks == []


def ranking_waves() -> list[DailyCountSeries]:
    """The four synthetic-istanbul waves, and a SEIR wave integrated at half
    the default step, so that no fit step reproduces it, cut to the 80 days
    around its peak."""
    excess = synthetic_istanbul()
    observed = []
    for seg in segment_waves(excess):
        piece = excess.window(seg.start_date, seg.end_date)
        observed.append(DailyCountSeries(piece.start, np.maximum(piece.values, 0.0)))
    deaths = daily_deaths(integrate("seir", TRUTH, 240, DEFAULT_STEP / 2), KAPPA)
    peak = int(np.argmax(deaths))
    observed.append(DailyCountSeries(dt.date(2020, 3, 1), deaths[peak - 40:peak + 40]))
    return observed


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("index", range(5))
def test_half_the_step_keeps_the_ranking(index, metric):
    """The default step ranks the criterion-7 grid as half of it does: the
    same top 10 in order, the same blown-up cells, and every other cell's
    error within 1e-4 points (at most 4e-7 here)."""
    observed = ranking_waves()[index]
    grid = GridSpec((0.2, 0.3, 8), (0.05, 0.18, 8), (2.0, 4.0, 3))
    coarse = grid_search(observed, grid, metric)
    fine = grid_search(observed, grid, metric, step=DEFAULT_STEP / 2)
    assert [c.params for c in coarse.candidates] == [c.params for c in fine.candidates]
    finite = np.isfinite(coarse.surface)
    assert np.array_equal(finite, np.isfinite(fine.surface))
    assert np.abs(coarse.surface - fine.surface)[finite].max() <= 1e-4


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("index", range(5))
def test_padded_bank_scores_as_its_contiguous_window(index, metric):
    """``_bank`` scores the view of its window padded by a day on each side
    bit for bit as ``_score`` scores the window the bank returns unpadded."""
    obs = np.asarray(ranking_waves()[index].values, float)
    grid = GridSpec((0.2, 0.3, 8), (0.05, 0.18, 8), (2.0, 4.0, 3))
    b, h, x = (a.ravel() for a in np.meshgrid(
        grid.beta_values, grid.eta_values, grid.epsilon_values, indexing="ij"))
    horizon = calibration.default_horizon(obs.size)
    before_peak = int(np.argmax(obs))
    window = daily_removed(b, h, x, horizon, before_peak, obs.size - before_peak)
    assert window.flags.c_contiguous
    expected = calibration._score(window, obs, metric)
    errors, kappas, _ = calibration._bank(b, h, x, obs, horizon, DEFAULT_STEP, metric)
    assert errors.tobytes() == expected[0].tobytes()
    assert kappas.tobytes() == expected[1].tobytes()


def spy_on_banks(monkeypatch) -> list:
    """Record the width and dtype name of each bank this process integrates;
    forked workers record in their own copy of the list."""
    built = []
    bank = calibration.daily_removed

    def spy_bank(beta, *args, dtype=np.float64, **kwargs):
        built.append((np.size(beta), np.dtype(dtype).name))
        return bank(beta, *args, dtype=dtype, **kwargs)

    monkeypatch.setattr(calibration, "daily_removed", spy_bank)
    return built


# 4,200 cells: one bank wide enough to be screened, or two with _CHUNK cut.
SCREEN_GRID = GridSpec((0.15, 0.35, 30), (0.05, 0.20, 20), (2.0, 5.0, 7))


def report_outputs(report) -> tuple:
    """A report's candidates, kappas included, and both scans."""
    return report.candidates, report.beta_scan, report.eta_scan


def float64_only(monkeypatch) -> None:
    """Raise the screening width above any grid here: every bank runs in
    float64 alone."""
    monkeypatch.setattr(calibration, "_SCREEN_CELLS", 10**9)


def unflagged_within_half_a_margin(b, h, x, observed, metric) -> np.ndarray:
    """Screen the cells at the default step's screening step and assert that
    each unflagged one lies within half a ``_margin`` of its float64 error
    at the default step; return the flags."""
    horizon = calibration.default_horizon(observed.size)
    screened, _, flagged = calibration._bank(
        b, h, x, observed, horizon, calibration._screen_step(DEFAULT_STEP), metric,
        np.float32)
    exact, _, _ = calibration._bank(b, h, x, observed, horizon, DEFAULT_STEP, metric)
    ok = ~flagged
    low = np.minimum(screened[ok], exact[ok])
    assert np.all(np.abs(screened[ok] - exact[ok]) < calibration._margin(low) / 2)
    return flagged


class TestScreenedBanks:
    """A grid of at least ``_SCREEN_CELLS`` cells runs in float32 at the
    screening step and re-runs its contenders in float64; its report equals
    a float64-only fit's.  Banks run in this process, so that the spy sees
    each one."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        usable_cpus(monkeypatch, 1)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("index", range(5))
    def test_screened_fit_equals_float64_fit(self, monkeypatch, tmp_path, index,
                                             metric):
        observed = ranking_waves()[index]
        monkeypatch.setattr(calibration, "_CHUNK", SCREEN_GRID.n_cells // 2)
        banks = spy_on_banks(monkeypatch)
        reports = [grid_search(observed, SCREEN_GRID, metric)]
        assert [dtype for _, dtype in banks] == ["float32", "float32", "float64"]
        float64_only(monkeypatch)
        reports.append(grid_search(observed, SCREEN_GRID, metric))
        for name, report in zip("ab", reports):
            report.to_csv(tmp_path / f"{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert report_outputs(reports[0]) == report_outputs(reports[1])

    def test_a_flagged_cell_sets_no_threshold(self, monkeypatch):
        """On synthetic-istanbul wave 1, the cell (beta 0.15101, eta 0.05101,
        epsilon 5) peaks on two near-tied days.  It reads 9.0044 screened and
        9.1861 in float64.  Were it to set its beta slice's threshold, the
        slice minimum (eta 0.05201) would stay screened, at 9.04487841380395."""
        observed = ranking_waves()[1]
        default = GridSpec()
        beta = float(default.beta_values[1])
        grid = GridSpec((beta, float(default.beta_values[60]), 2),
                        default.eta_range, default.epsilon_range)
        banks = spy_on_banks(monkeypatch)
        screened = grid_search(observed, grid)
        assert banks[0] == (grid.n_cells, "float32")
        assert screened.beta_scan[0] == (beta, 9.044899936788717)
        float64_only(monkeypatch)
        assert report_outputs(screened) == report_outputs(grid_search(observed, grid))

    def test_flagged_cells_set_no_kth_best(self):
        """The grid's k-th best comes from the unflagged cells alone: here
        the 3rd best is 5.0, not the 3.0 that counting the flagged cell's
        1.0 would make it, so the cell at 5.0 is a contender."""
        # One beta and one eta slice, whose minimum 5.0 is not.
        errors = np.array([1.0, 3.0, 5.0, 3.0]).reshape(1, 1, 4)
        flagged = np.array([True, False, False, False]).reshape(1, 1, 4)
        near = calibration._contenders(errors, flagged, 3)
        assert near.ravel().tolist() == [True, True, True, True]

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("index", range(5))
    def test_unflagged_screened_errors_lie_within_half_a_margin(self, index, metric):
        """The bound that makes a screened report exact: an unflagged cell's
        screened error, run in float32 at the screening step, is within half
        a ``_margin`` of its float64 error at the fit's step (at most a
        tenth of that here).

        Besides a coarse grid, the cells include default-grid cells of R0
        just under 1 whose two largest days lie 2.2e-5 (beta 0.15, eta
        0.16174, epsilon 2.5) and 3.2e-5 to 5.4e-5 (epsilon 4) relative
        apart at step 0.2.  They peak on another day than at step 0.1 and
        move by 20 to 86 half margins; a tie band of 5e-5 leaves two of
        them unflagged on every wave here."""
        observed = np.asarray(ranking_waves()[index].values, float)
        coarse = np.meshgrid(*(np.linspace(*axis) for axis in (
            SCREEN_GRID.beta_range, SCREEN_GRID.eta_range, (2.0, 5.0, 2))), indexing="ij")
        default = GridSpec()
        diagonal = np.arange(7)
        tied = (default.beta_values[np.r_[0, 42 + diagonal]],
                default.eta_values[np.r_[111, 143 + diagonal]],
                default.epsilon_values[np.r_[1, np.full(7, 4)]])
        b, h, x = (np.concatenate((a.ravel(), t)) for a, t in zip(coarse, tied))
        flagged = unflagged_within_half_a_margin(b, h, x, observed, metric)
        assert flagged.mean() < 0.08

    def test_blown_up_cells_rerun_without_warnings(self, wave, monkeypatch):
        """Float32 overflows at 3.4e38, float64 at 1.8e308.  Every cell that
        blows up in float64 (epsilon 42 and 62 at step 0.1) is flagged, as
        a non-finite screened error or past the stability bound of the
        screening step, so it re-runs; no overflow warning escapes either
        pass."""
        grid = GridSpec(SCREEN_GRID.beta_range, SCREEN_GRID.eta_range, (2.0, 62.0, 4))
        banks = spy_on_banks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            screened = grid_search(wave, grid)
            float64_only(monkeypatch)
            exact = grid_search(wave, grid)
        blown_up = np.isinf(exact.surface).sum()
        assert blown_up == grid.n_cells // 2
        assert banks[0] == (grid.n_cells, "float32") and banks[1][0] >= blown_up
        assert report_outputs(screened) == report_outputs(exact)

    @pytest.mark.parametrize("metric", METRICS)
    def test_wide_epsilon_grid_equals_float64_fit(self, monkeypatch, metric):
        """Epsilon up to 19.4: step 0.2 * (beta + eta + epsilon) spans 1.1
        to 4.  Every cell past 2, where RK4 may turn unstable at the
        screening step, is flagged; unflagged ones, 1.1 to 2, stay within
        half a ``_margin`` (at most a tenth of that here), and the report
        and scans keep their float64 values."""
        observed = ranking_waves()[1]
        grid = GridSpec(SCREEN_GRID.beta_range, SCREEN_GRID.eta_range, (5.3, 19.4, 7))
        b, h, x = (a.ravel() for a in np.meshgrid(
            grid.beta_values, grid.eta_values, grid.epsilon_values, indexing="ij"))
        flagged = unflagged_within_half_a_margin(
            b, h, x, np.asarray(observed.values, float), metric)
        unstable = calibration._screen_step(DEFAULT_STEP) * (b + h + x) > 2.0
        assert 0 < unstable.mean() < 1 and flagged[unstable].all()
        screened = grid_search(observed, grid, metric)
        float64_only(monkeypatch)
        assert report_outputs(screened) == report_outputs(grid_search(observed, grid,
                                                                      metric))

    @pytest.mark.parametrize("step, coarse", [(0.1, 0.2), (0.05, 0.1), (0.2, 0.2),
                                              (0.04, 0.04), (0.125, 0.125), (1.0, 1.0)])
    def test_screening_step(self, step, coarse):
        """Twice the fit's step while that divides a day into at least 5."""
        assert calibration._screen_step(step) == coarse

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("step, coarse", [(0.05, 0.1), (0.2, 0.2)])
    def test_screened_fit_at_another_step_equals_float64_fit(
            self, monkeypatch, metric, step, coarse):
        """A fit at step 0.05 is screened at 0.1; one at 0.2 is screened at
        its own step."""
        observed = ranking_waves()[1]
        screened_at = []
        bank = calibration._bank

        def spy_bank(*args, step, dtype, **kwargs):
            if dtype == np.float32:
                screened_at.append(step)
            return bank(*args, step=step, dtype=dtype, **kwargs)

        monkeypatch.setattr(calibration, "_bank", spy_bank)
        screened = grid_search(observed, SCREEN_GRID, metric, step=step)
        assert screened_at == [coarse]
        float64_only(monkeypatch)
        exact = grid_search(observed, SCREEN_GRID, metric, step=step)
        assert screened_at == [coarse]
        assert report_outputs(screened) == report_outputs(exact)

    def test_narrow_grid_builds_float64_banks_only(self, wave, monkeypatch):
        banks = spy_on_banks(monkeypatch)
        grid_search(wave, GridSpec((0.2, 0.3, 8), (0.05, 0.18, 8), (2.0, 4.0, 3)))
        assert banks == [(192, "float64")]

    def test_top_k_of_the_whole_bank_builds_float64_banks_only(
            self, monkeypatch, tmp_path):
        """A second pass would re-run every cell."""
        banks = spy_on_banks(monkeypatch)
        n = SCREEN_GRID.n_cells
        rc = main(["fit", "--fixture", "synthetic-istanbul", "--wave-index", "1",
                   "--beta-grid", "0.15,0.35,30", "--eta-grid", "0.05,0.2,20",
                   "--epsilon-grid", "2,5,7", "--top-k", str(n), "--quiet",
                   "--no-timestamp", "--out", str(tmp_path)])
        assert rc == 0 and banks == [(n, "float64")]

    def test_wide_bank_reruns_a_few_cells_in_float64(self, wave, monkeypatch):
        banks = spy_on_banks(monkeypatch)
        grid_search(wave, SCREEN_GRID)
        (width, first), (rerun, second) = banks
        assert (width, first, second) == (SCREEN_GRID.n_cells, "float32", "float64")
        assert 10 <= rerun <= 0.085 * width  # 335 cells, 8.0 %, measured


def spy_on_pools(monkeypatch) -> list:
    """Record the worker count of each process pool that starts."""
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return started


def usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestBankPool:
    """Banks run on one worker process per usable CPU, with unchanged results.

    ``_CHUNK`` is cut to 100 cells so that a small grid spans several banks.
    """

    GRID = GridSpec(beta_range=(0.18, 0.30, 9), eta_range=(0.08, 0.16, 9),
                    epsilon_range=(2.0, 5.0, 5))  # 405 cells: 5 banks

    @pytest.mark.parametrize("metric", METRICS)
    def test_reports_equal_in_process_and_pooled(
            self, wave, tmp_path, monkeypatch, metric):
        monkeypatch.setattr(calibration, "_CHUNK", 100)
        pools = spy_on_pools(monkeypatch)
        banks = spy_on_banks(monkeypatch)
        outputs = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            report = grid_search(wave, self.GRID, metric, top_k=self.GRID.n_cells)
            report.to_csv(tmp_path / f"report{cpus}.csv")
            outputs.append(((tmp_path / f"report{cpus}.csv").read_bytes(),
                            report.beta_scan, report.eta_scan))
            if cpus == 1:  # five banks in this process, no pool
                assert banks == [(81, "float64")] * 5 and pools == []
        assert pools == [2]
        assert banks == [(81, "float64")] * 5  # the pooled run built none here
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == self.GRID.n_cells + 1

    def test_screened_reports_equal_in_process_and_pooled(self, monkeypatch):
        """Two screened banks give the float64-only report and scans, in this
        process and on the pool."""
        observed = ranking_waves()[1]
        monkeypatch.setattr(calibration, "_CHUNK", SCREEN_GRID.n_cells // 2)
        pools = spy_on_pools(monkeypatch)
        banks = spy_on_banks(monkeypatch)
        outputs = []
        default = calibration._SCREEN_CELLS
        for cpus, screen_cells in ((1, 10**9), (1, default), (2, default)):
            usable_cpus(monkeypatch, cpus)
            monkeypatch.setattr(calibration, "_SCREEN_CELLS", screen_cells)
            outputs.append(report_outputs(grid_search(observed, SCREEN_GRID, "cum-mape")))
        # One pool for both passes; the pooled run built no bank here.
        assert pools == [2]
        assert [dtype for _, dtype in banks] == ["float64"] * 2 + ["float32"] * 2 + [
            "float64"]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_one_screened_bank_starts_no_pool(self, monkeypatch):
        pools = spy_on_pools(monkeypatch)
        banks = spy_on_banks(monkeypatch)
        usable_cpus(monkeypatch, 2)
        grid_search(ranking_waves()[1], SCREEN_GRID)
        assert pools == []
        assert [dtype for _, dtype in banks] == ["float32", "float64"]

    def test_pooled_blow_ups_raise_no_warning(self, wave, monkeypatch):
        """Workers inherit the warning filters, so an overflow warning in a
        screening or a confirmation bank would fail the fit."""
        grid = GridSpec(SCREEN_GRID.beta_range, SCREEN_GRID.eta_range, (2.0, 62.0, 4))
        monkeypatch.setattr(calibration, "_CHUNK", grid.n_cells // 2)
        pools = spy_on_pools(monkeypatch)
        usable_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            screened = grid_search(wave, grid)
            float64_only(monkeypatch)
            exact = grid_search(wave, grid)
        assert pools == [2, 2]
        assert np.isinf(exact.surface).sum() == grid.n_cells // 2
        assert report_outputs(screened) == report_outputs(exact)

    def test_one_bank_starts_no_pool(self, wave, monkeypatch):
        monkeypatch.setattr(calibration, "_CHUNK", SMALL_GRID.n_cells)
        pools = spy_on_pools(monkeypatch)
        usable_cpus(monkeypatch, 2)
        grid_search(wave, SMALL_GRID)
        assert pools == []

    def test_import_leaves_pool_modules_out(self):
        code = ("import sys, epiwave; print(sorted(m for m in sys.modules"
                " if m.startswith(('multiprocessing', 'concurrent'))))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=epiwave_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.mark.skipif(
        not (sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1),
        reason="workers start only with two usable CPUs; Linux lists them")
    def test_workers_end_with_a_killed_parent(self):
        # 20,000 cells on a 400-day horizon: three banks, each seconds long.
        code = ("from epiwave import GridSpec, SeirParams, grid_search\n"
                "from epiwave.fixtures import synthetic_wave\n"
                "wave = synthetic_wave(SeirParams(0.23, 0.14, 3.0), kappa=1e4)\n"
                "grid = GridSpec((0.15, 0.35, 100), (0.05, 0.2, 100), (2, 5, 2))\n"
                "grid_search(wave, grid, horizon_days=400)\n")
        parent = subprocess.Popen([sys.executable, "-c", code], env=epiwave_env())
        children = Path(f"/proc/{parent.pid}/task/{parent.pid}/children")
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2:
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
                workers = children.read_text().split()
            parent.terminate()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(running, workers)):
                assert time.monotonic() < deadline, "workers outlived their parent"
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait(timeout=10)
            for pid in filter(running, workers):
                os.kill(int(pid), signal.SIGKILL)


def epiwave_env() -> dict:
    """This environment, with the tested epiwave first on the import path."""
    src = str(Path(epiwave.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def running(pid: str) -> bool:
    """Whether process ``pid`` exists and has not yet exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestAverageTopCandidates:
    def _candidates(self, rows):
        return [
            FitCandidate(
                params=SeirParams(b, e, x), kappa=k, r0=b / e, error_pct=err
            )
            for b, e, x, k, err in rows
        ]

    def test_n_one_is_best_candidate(self):
        candidates = self._candidates(
            [(0.23, 0.14, 3.0, 1e4, 0.5), (0.24, 0.15, 3.0, 1e4, 0.9)]
        )
        assert average_top_candidates(candidates, 1) == candidates[0]

    def test_mean_of_two(self):
        candidates = self._candidates(
            [(0.22, 0.10, 3.0, 1e4, 0.5), (0.24, 0.12, 4.0, 2e4, 0.7)]
        )
        avg = average_top_candidates(candidates, 2)
        assert avg.params.beta == pytest.approx(0.23)
        assert avg.params.eta == pytest.approx(0.11)
        assert avg.params.epsilon == pytest.approx(3.5)
        assert avg.kappa == pytest.approx(1.5e4)
        assert avg.error_pct == pytest.approx(0.6)
        assert avg.r0 == avg.params.beta / avg.params.eta

    def test_too_few_candidates(self):
        candidates = self._candidates([(0.23, 0.14, 3.0, 1e4, 0.5)])
        with pytest.raises(ValueError):
            average_top_candidates(candidates, 2)

    def test_blown_up_candidate_rejected(self, wave):
        # The four cells at epsilon 1e5 blow up (error inf, kappa 0) and rank last.
        grid = GridSpec((0.22, 0.24, 2), (0.13, 0.15, 2), (3.0, 1e5, 2))
        candidates = grid_search(wave, grid, top_k=8).candidates
        assert average_top_candidates(candidates, 4).params.epsilon == 3.0
        with pytest.raises(ValueError, match="blown-up candidate"):
            average_top_candidates(candidates, 5)

    @pytest.mark.parametrize("n", [1.5, 2.0, np.float64(1.0)])
    def test_non_integer_n_rejected(self, n):
        candidates = self._candidates(
            [(0.23, 0.14, 3.0, 1e4, 0.5), (0.24, 0.15, 3.0, 1e4, 0.9)]
        )
        with pytest.raises(ValueError, match="n must be an int"):
            average_top_candidates(candidates, n)


@pytest.mark.parametrize("kappa, error", [
    (1e4, np.nan), (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (-1.0, 1.0),
    (1e4, -0.5), (1e4, -np.inf),
])
def test_fit_candidate_rejects_what_no_fit_writes(kappa, error):
    params = SeirParams(0.3, 0.1, 3.0)
    with pytest.raises(ValueError, match="non-finite or negative kappa"):
        FitCandidate(params, kappa, 3.0, error)


@pytest.mark.parametrize("r0", [np.nan, np.inf, 3.1])
def test_fit_candidate_r0_is_beta_over_eta(r0):
    with pytest.raises(ValueError, match="r0 must equal beta/eta"):
        FitCandidate(SeirParams(0.3, 0.1, 3.0), 1e4, r0, 1.0)


def test_fit_candidate_accepts_a_blown_up_cell():
    blown = FitCandidate(SeirParams(0.3, 0.1, 3.0), 0.0, 3.0, np.inf)
    assert blown.error_pct == np.inf and blown.kappa == 0.0


def test_report_csv_shape(tmp_path, wave):
    report = grid_search(wave, SMALL_GRID, top_k=10)
    report.to_csv(tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "r0,beta,eta,epsilon,kappa,error_pct"
    assert len(lines) == 11  # header + ten ranked rows


def test_fit_report_reads_back(tmp_path, wave):
    # Every cell, the blown-up ones with inf errors too.
    grid = GridSpec((0.22, 0.24, 2), (0.13, 0.15, 2), (3.0, 1e5, 2))
    report = grid_search(wave, grid, top_k=grid.n_cells)
    report.to_csv(tmp_path / "fit_report.csv")

    def bits(candidates):
        return [tuple(map(float.hex, (c.params.beta, c.params.eta, c.params.epsilon,
                                      c.kappa, c.r0, c.error_pct)))
                for c in candidates]

    read = read_fit_report(tmp_path / "fit_report.csv")
    assert type(read) is type(report.candidates) is tuple
    assert bits(read) == bits(report.candidates)
    assert float("inf") in [c.error_pct for c in read]


def test_header_only_fit_report_has_no_data_rows(tmp_path):
    path = tmp_path / "fit_report.csv"
    path.write_text("r0,beta,eta,epsilon,kappa,error_pct\n")
    with pytest.raises(SeriesError, match=r"fit_report\.csv: no data rows$"):
        read_fit_report(path)
