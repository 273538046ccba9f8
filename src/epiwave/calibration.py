"""Grid-search calibration of SEIR parameters to an observed daily-deaths wave.

Every grid cell integrates the SEIR model from the standard seed, aligns the
model daily-deaths curve to the data by matching peak days, profiles the
observation scale kappa in closed form (model total deaths == observed total
deaths), and scores the fit.  The default metric is RMSE normalized by the
observed peak, in percent; a cumulative-MAPE alternative is selectable.

Cells are integrated in banks of similar R0, each only until its
peak-aligned window is covered; results are collected and then sorted, so
the ranking is independent of evaluation order.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .epidemic import DEFAULT_SEED, DEFAULT_STEP, SeirBank, SeirParams
from .series import DailyCountSeries

METRICS = ("nrmse-peak", "cum-mape")

_CHUNK = 8192  # cells per bank: keeps the kernel's working set in L2
_SCORE_ROWS = 512  # cells per _score call: keeps its temporaries small


@dataclass(frozen=True)
class GridSpec:
    """(min, max, steps) per axis; steps=1 pins the axis at its min."""

    beta_range: tuple[float, float, int] = (0.15, 0.35, 200)
    eta_range: tuple[float, float, int] = (0.05, 0.20, 150)
    epsilon_range: tuple[float, float, int] = (2.0, 5.0, 7)

    def __post_init__(self):
        for name, (lo, hi, steps) in (
            ("beta", self.beta_range),
            ("eta", self.eta_range),
            ("epsilon", self.epsilon_range),
        ):
            if steps < 1:
                raise ValueError(f"{name} steps must be >= 1")
            if lo <= 0 or hi <= 0:
                raise ValueError(f"{name} bounds must be > 0")
            if steps > 1 and not lo < hi:
                raise ValueError(f"{name} needs min < max when steps > 1")

    @staticmethod
    def _axis(rng) -> np.ndarray:
        lo, hi, steps = rng
        return np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])

    @property
    def beta_values(self) -> np.ndarray:
        return self._axis(self.beta_range)

    @property
    def eta_values(self) -> np.ndarray:
        return self._axis(self.eta_range)

    @property
    def epsilon_values(self) -> np.ndarray:
        return self._axis(self.epsilon_range)

    @property
    def n_cells(self) -> int:
        return self.beta_range[2] * self.eta_range[2] * self.epsilon_range[2]


@dataclass(frozen=True)
class FitCandidate:
    params: SeirParams
    kappa: float
    r0: float
    error_pct: float

    def __post_init__(self):
        if abs(self.r0 - self.params.beta / self.params.eta) > 1e-12:
            raise ValueError("r0 must equal beta/eta")
        if self.kappa < 0 or self.error_pct < 0:
            raise ValueError("kappa and error_pct must be >= 0")


@dataclass
class FitReport:
    """Ranked candidates plus per-axis minimum-error scans."""

    candidates: list[FitCandidate]
    grid: GridSpec
    metric: str
    beta_scan: list[tuple[float, float]] = field(default_factory=list)
    eta_scan: list[tuple[float, float]] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("r0,beta,eta,epsilon,kappa,error_pct\n")
            for c in self.candidates:
                fh.write(
                    f"{c.r0!r},{c.params.beta!r},{c.params.eta!r},"
                    f"{c.params.epsilon!r},{c.kappa!r},{c.error_pct!r}\n"
                )

    @staticmethod
    def scan_to_csv(scan, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("param_value,min_error_pct\n")
            for value, err in scan:
                fh.write(f"{value!r},{err!r}\n")


def default_horizon(n_obs: int) -> int:
    """Integration horizon long enough for plausible peaks and fall windows."""
    return max(2 * n_obs, 240)


def _model_curves(bank, observed, horizon, step, seed) -> np.ndarray:
    """The bank's daily removals over the days ``_score`` reads.

    A cell's days after its peak-aligned window are past its peak, and they
    read 0, which leaves its argmax and its window unchanged.
    """
    after_peak = observed.size - int(np.argmax(observed))
    return bank.daily_removed(horizon, step=step, seed=seed, after_peak=after_peak)


def _score(model_dd: np.ndarray, observed: np.ndarray, metric: str):
    """Peak-align each model curve to the data, profile kappa, score.

    Returns (error_pct, kappa) arrays over cells.  Cells whose aligned
    window captures no deaths get kappa 0 and infinite error.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    n_obs = observed.size
    horizon = model_dd.shape[1]
    peak_model = np.argmax(model_dd, axis=1)  # earliest day on ties
    peak_obs = int(np.argmax(observed))
    idx = peak_model[:, None] + (np.arange(n_obs) - peak_obs)[None, :]
    in_range = (idx >= 0) & (idx < horizon)
    aligned = np.take_along_axis(model_dd, np.clip(idx, 0, horizon - 1), axis=1)
    aligned[~in_range] = 0.0

    model_total = aligned.sum(axis=1)
    obs_total = observed.sum()
    kappa = np.divide(
        obs_total, model_total, out=np.zeros_like(model_total), where=model_total > 0
    )
    model = kappa[:, None] * aligned
    if metric == "nrmse-peak":
        rmse = np.sqrt(np.mean((model - observed[None, :]) ** 2, axis=1))
        error = 100.0 * rmse / observed.max()
    else:  # cum-mape
        cum_model = np.cumsum(model, axis=1)
        cum_obs = np.cumsum(observed)
        mask = cum_obs > 0
        rel = np.abs(cum_model[:, mask] - cum_obs[mask]) / cum_obs[mask]
        # Summed day by day, so a cell scores the same in a bank of any size;
        # a mean over axis 1 sums one row pairwise but a bank column-wise.
        error = 100.0 * (np.cumsum(rel, axis=1)[:, -1] / rel.shape[1])
    error = np.where(model_total > 0, error, np.inf)
    return error, kappa


def _check_observed(observed: DailyCountSeries) -> np.ndarray:
    obs = np.asarray(observed.values, float)
    if obs.size < 14:
        raise ValueError("observed wave must span at least 14 days")
    if not np.any(obs > 0):
        raise ValueError("observed wave is all zero")
    return obs


def fit_error(
    params: SeirParams,
    observed: DailyCountSeries,
    metric: str = "nrmse-peak",
    *,
    horizon_days: int | None = None,
    step: float = DEFAULT_STEP,
    seed: float = DEFAULT_SEED,
) -> tuple[float, float]:
    """Error percentage and closed-form kappa for one parameter set."""
    obs = _check_observed(observed)
    horizon = horizon_days or default_horizon(obs.size)
    bank = SeirBank(params.beta, params.eta, params.epsilon)
    error, kappa = _score(_model_curves(bank, obs, horizon, step, seed), obs, metric)
    return float(error[0]), float(kappa[0])


def grid_search(
    observed: DailyCountSeries,
    grid: GridSpec | None = None,
    metric: str = "nrmse-peak",
    top_k: int = 10,
    *,
    horizon_days: int | None = None,
    step: float = DEFAULT_STEP,
    seed: float = DEFAULT_SEED,
) -> FitReport:
    """Exhaustive scan of the grid; deterministic collect-then-sort ranking."""
    if grid is None:
        grid = GridSpec()
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    obs = _check_observed(observed)
    horizon = horizon_days or default_horizon(obs.size)

    bv, ev, xv = grid.beta_values, grid.eta_values, grid.epsilon_values
    B, H, X = (a.ravel() for a in np.meshgrid(bv, ev, xv, indexing="ij"))
    n = B.size
    errors = np.empty(n)
    kappas = np.empty(n)
    # Cells of similar R0 stop at about the same day, so a bank empties evenly.
    by_r0 = np.argsort(B / H, kind="stable")
    for cells in np.array_split(by_r0, -(-n // _CHUNK)):
        bank = SeirBank(B[cells], H[cells], X[cells])
        dd = _model_curves(bank, obs, horizon, step, seed)
        for first in range(0, cells.size, _SCORE_ROWS):
            rows = slice(first, first + _SCORE_ROWS)
            errors[cells[rows]], kappas[cells[rows]] = _score(dd[rows], obs, metric)
        del dd  # before the next bank allocates its curves

    # Ascending error; ties broken lexicographically by (beta, eta, epsilon).
    order = np.lexsort((X, H, B, errors))
    top = order[: min(top_k, n)]
    candidates = [
        FitCandidate(
            params=SeirParams(float(B[i]), float(H[i]), float(X[i])),
            kappa=float(kappas[i]),
            r0=float(B[i]) / float(H[i]),
            error_pct=float(errors[i]),
        )
        for i in top
    ]
    surface = errors.reshape(bv.size, ev.size, xv.size)
    beta_scan = [(float(b), float(surface[i].min())) for i, b in enumerate(bv)]
    eta_scan = [(float(e), float(surface[:, j].min())) for j, e in enumerate(ev)]
    return FitReport(
        candidates=candidates,
        grid=grid,
        metric=metric,
        beta_scan=beta_scan,
        eta_scan=eta_scan,
    )


def average_top_candidates(
    candidates: Sequence[FitCandidate], n: int
) -> FitCandidate:
    """Arithmetic mean of the n best candidates, given best first; r0 is
    mean-beta/mean-eta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(candidates) < n:
        raise ValueError(f"{len(candidates)} candidates, need {n}")
    best = candidates[:n]
    beta = float(np.mean([c.params.beta for c in best]))
    eta = float(np.mean([c.params.eta for c in best]))
    epsilon = float(np.mean([c.params.epsilon for c in best]))
    kappa = float(np.mean([c.kappa for c in best]))
    error = float(np.mean([c.error_pct for c in best]))
    return FitCandidate(
        params=SeirParams(beta, eta, epsilon),
        kappa=kappa,
        r0=beta / eta,
        error_pct=error,
    )
