import numpy as np
import pytest

from epiwave.calibration import (
    METRICS,
    FitCandidate,
    GridSpec,
    average_top_candidates,
    fit_error,
    grid_search,
)
from epiwave.epidemic import SeirParams
from epiwave.fixtures import synthetic_wave
from epiwave.series import DailyCountSeries

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


def test_report_csv_shape(tmp_path, wave):
    report = grid_search(wave, SMALL_GRID, top_k=10)
    report.to_csv(tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "r0,beta,eta,epsilon,kappa,error_pct"
    assert len(lines) == 11  # header + ten ranked rows
