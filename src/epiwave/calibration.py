"""Grid-search calibration of SEIR parameters to an observed daily-deaths wave.

Every grid cell integrates the SEIR model from the standard seed; the bank,
``epidemic.daily_removed``, returns its daily curve in the window that puts
its peak day on the observed one.  Scoring profiles the observation scale
kappa in closed form (model total deaths == observed total deaths) on that
window and scores the fit.  The default metric is RMSE normalized by the
observed peak, in percent; a cumulative-MAPE alternative is selectable.

Cells are integrated in banks of similar R0, each only until its window is
covered, and every bank of every pass runs one job, ``_bank``, at its own
step and dtype; results are collected and then sorted, so the ranking is
independent of evaluation order.  A wide grid is screened: every bank runs
in float32 at twice the fit's step, then the cells that can reach the
report or a scan re-run together in float64 at the fit's step, so both keep
their float64 bytes.  Several banks run on one forked worker process per
usable CPU, one pool for both passes.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .epidemic import (DEFAULT_STEP, RK4_STABILITY_BOUND, IntegrationError,
                       SeirParams, daily_removed, steps_per_day)
from .series import DailyCountSeries, read_csv, write_csv

METRICS = ("nrmse-peak", "cum-mape")

# Cells per bank, measured, not derived from a cache size: at 21 numbers per
# cell an 8,192-cell bank holds 1.31 MiB in float64, more than a 1 MiB
# per-core L2, and 0.66 MiB in float32.  8,192 beat 2,048, 4,096 and 14,070
# cells when the bank came in.  With the 21-number step, banks of at most
# 6,000 cells (bank count rounded up to a multiple of the workers) were not
# clearly faster on fit-oracle: median 63.5k -> 66.3k cells/s over 10
# alternating pairs, within the spread.
_CHUNK = 8192
# Grids at least this wide, and wider than ``top_k``, are screened (see
# ``grid_search``).  Fits of the four synthetic-istanbul waves in one pinned
# process (2-CPU Xeon VM), float64 alone -> screened, for each metric: 0.12
# -> 0.17 s at 192 cells, 0.24-0.25 -> 0.24-0.25 s at 1,024, 0.32-0.33 ->
# 0.27 s at 1,600 and 0.41-0.46 -> 0.30 s at 2,304.  The break-even lies
# near 1,024 cells, but no benchmark grid lies between 192 and 2,048.
_SCREEN_CELLS = 2048
# A screened cell is re-run in float64 when another day comes within _TIE
# relative of its peak day, as float32 and the doubled step may order such
# days differently.  At a tie band of 2e-5, cells left unflagged flipped
# their peak day between steps 0.2 and 0.1 and moved by up to 86 half
# margins; at 5e-5, by 73.  At 1e-4 the worst unflagged cell moved by 0.095
# of a half margin over 30 inputs, with 5.7-9.5 % of the cells flagged.
_TIE = 1e-4
_SCORE_ROWS = 512  # cells per _score call: keeps its temporaries small
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


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
            if not isinstance(steps, (int, np.integer)) or steps < 1:
                raise ValueError(f"{name} steps must be an int >= 1: {steps!r}")
            if not (0 < lo < np.inf and 0 < hi < np.inf):
                raise ValueError(f"{name} bounds must be finite and > 0")
            if steps > 1 and not lo < hi:
                raise ValueError(f"{name} needs min < max when steps > 1")

    @property
    def beta_values(self) -> np.ndarray:
        return np.linspace(*self.beta_range)

    @property
    def eta_values(self) -> np.ndarray:
        return np.linspace(*self.eta_range)

    @property
    def epsilon_values(self) -> np.ndarray:
        return np.linspace(*self.epsilon_range)

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
        if not abs(self.r0 - self.params.beta / self.params.eta) <= 1e-12:
            raise ValueError("r0 must equal beta/eta")
        # A fit writes inf for a cell that blows up, but never NaN.
        if not (0 <= self.kappa < np.inf and self.error_pct >= 0):
            raise ValueError(f"non-finite or negative kappa {self.kappa!r}, or NaN "
                             f"or negative error_pct {self.error_pct!r}")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Ranked candidates plus the error of every cell, shape (nbeta, neta,
    nepsilon); each scan pairs an axis value with its least error.

    Every candidate's error and each scan minimum are exact float64 values.
    In a grid that was screened (see ``grid_search``), the other ``surface``
    entries may be screened values: float32 runs at the screening step,
    scored in float64, within half a ``_margin`` of their float64 errors at
    the fit's step on every input measured.  Each ranks strictly behind
    every candidate and behind its slices' minima."""

    candidates: tuple[FitCandidate, ...]
    grid: GridSpec
    surface: np.ndarray

    @property
    def beta_scan(self) -> list[tuple[float, float]]:
        return list(zip(self.grid.beta_values.tolist(),
                        self.surface.min(axis=(1, 2)).tolist()))

    @property
    def eta_scan(self) -> list[tuple[float, float]]:
        return list(zip(self.grid.eta_values.tolist(),
                        self.surface.min(axis=(0, 2)).tolist()))

    def to_csv(self, path) -> None:
        rows = ((c.r0, c.params.beta, c.params.eta, c.params.epsilon, c.kappa,
                 c.error_pct) for c in self.candidates)
        write_csv(path, ("r0", "beta", "eta", "epsilon", "kappa", "error_pct"), rows)


def read_fit_report(path) -> tuple[FitCandidate, ...]:
    """The candidates of a fit_report.csv, in file order; SeriesError, naming
    ``path:line``, for a row that ``SeirParams`` or ``FitCandidate`` rejects."""
    columns = dict.fromkeys(("beta", "eta", "epsilon", "kappa", "error_pct"), float)
    return tuple(read_csv(path, columns, lambda beta, eta, epsilon, kappa, err: FitCandidate(
        SeirParams(beta, eta, epsilon), kappa, beta / eta, err)))


def default_horizon(n_obs: int) -> int:
    """Integration horizon long enough for plausible peaks and fall windows."""
    return max(2 * n_obs, 240)


def _score(windows: np.ndarray, observed: np.ndarray, metric: str):
    """(error_pct, kappa) arrays over cells: kappa profiled on each cell's
    peak-aligned window, then the window scored.  A window without a finite
    positive total (no deaths, or a blow-up) gets kappa 0 and infinite error."""
    model_total = windows.sum(axis=1)
    ok = (model_total > 0) & np.isfinite(model_total)
    kappa = np.divide(observed.sum(), model_total, out=np.zeros(len(windows)), where=ok)
    model = kappa[:, None] * windows
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
    error = np.where(ok, error, np.inf)
    return error, kappa


def _check_inputs(observed: DailyCountSeries, metric, step, horizon_days):
    """Observed values and horizon; ValueError for unusable input, before any work."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    steps_per_day(step)
    obs = observed.values
    if obs.size < 14:
        raise ValueError("observed wave must span at least 14 days")
    if not np.any(obs > 0):
        raise ValueError("observed wave is all zero")
    if horizon_days is None:
        return obs, default_horizon(obs.size)
    if not isinstance(horizon_days, (int, np.integer)) or horizon_days < 1:
        raise ValueError(f"horizon_days must be None or an int >= 1: {horizon_days!r}")
    return obs, horizon_days


def _screen_step(step):
    """The step of a screening pass: twice ``step`` while that still divides
    a day into at least 5 steps (0.2 day), else ``step`` itself."""
    per_day = steps_per_day(step)
    return 2.0 * step if per_day >= 10 and per_day % 2 == 0 else step


@np.errstate(over="ignore", invalid="ignore")
def _bank(beta, eta, epsilon, obs, horizon, step, metric, dtype=np.float64):
    """(errors, kappas, flagged) of a bank run in ``dtype`` and scored in
    float64, ``_SCORE_ROWS`` cells at a time; a cell that blows up scores
    an infinite error, without a warning.

    Only a screening pass reads the flags.  A cell is flagged when its error
    is not finite, a blow-up overflowing sooner in float32 included; when
    another day of its window, or a day next to it, comes within ``_TIE``
    relative of its peak day, as float32 or the coarse step may pick another
    peak day, and so another window; or when the step passes
    ``RK4_STABILITY_BOUND``.
    """
    before_peak = int(np.argmax(obs))
    # A day more on each side, so that the peak day has both neighbours.
    padded = daily_removed(beta, eta, epsilon, horizon, before_peak + 1,
                           obs.size - before_peak + 1, step=step, dtype=dtype)
    errors, kappas = np.empty(len(padded)), np.empty(len(padded))
    for first in range(0, len(padded), _SCORE_ROWS):
        rows = slice(first, first + _SCORE_ROWS)
        errors[rows], kappas[rows] = _score(padded[rows, 1:-1].astype(float, copy=False),
                                            obs, metric)
    peak = padded[:, before_peak + 1]
    runner_up = np.maximum(padded[:, :before_peak + 1].max(axis=1),
                           padded[:, before_peak + 2:].max(axis=1))
    flagged = (~np.isfinite(errors) | (runner_up >= peak * (1.0 - _TIE))
               | (step * (beta + eta + epsilon) > RK4_STABILITY_BOUND))
    return errors, kappas, flagged


def _margin(threshold):
    """How far above an error threshold a screened error may read and still
    be re-run in float64: 0.02 points plus 1e-3 of the threshold."""
    return 0.02 + 1e-3 * threshold


def _contenders(errors, flagged, top_k):
    """Whether each screened cell of the (nbeta, neta, nepsilon) grid lies
    within ``_margin`` of the grid's ``top_k``-th best error, or of the
    least error of its beta slice or its eta slice.  The thresholds come
    from the unflagged cells only: a flagged cell's screened error may read
    far too low."""
    unflagged = np.where(flagged, np.inf, errors)
    kth = np.partition(unflagged, top_k - 1, axis=None)[top_k - 1]
    # A margin grows with its threshold, so a cell's highest threshold decides.
    threshold = np.maximum(np.maximum(unflagged.min(axis=(1, 2))[:, None, None],
                                      unflagged.min(axis=(0, 2))[:, None]), kth)
    return errors <= threshold + _margin(threshold)


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker when the process that forked it ends.

    Otherwise a worker outlives a parent killed by a signal, re-parented to
    init and holding its bank's memory.  Linux kills it on request; if the
    request fails, the worker only lacks that guard.
    """
    if sys.platform == "linux":
        import ctypes
        import signal

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    # The parent may have ended before the request took effect.
    if os.getppid() != parent:
        os._exit(1)


@contextmanager
def _bank_pool(n_banks: int):
    """(workers, map) for ``n_banks`` banks: a pool of one worker process per
    usable CPU, or this process.

    Where there is one usable CPU or one bank, the banks run in this process.
    Usable CPUs are those ``os.sched_getaffinity`` reports (one where it is
    missing, as on macOS and Windows); every platform that has it can fork.
    Each worker ends with this process.  The pool modules are imported only
    when a pool starts, so that they add nothing to the import of epiwave.
    """
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    workers = min(len(usable), n_banks)
    if workers < 2:
        yield 1, map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: spawn re-imports __main__ and starts a fresh
    # interpreter per worker.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_exit_with_parent,
                             initargs=(os.getpid(),)) as pool:
        yield workers, pool.map


def fit_error(
    params: SeirParams,
    observed: DailyCountSeries,
    metric: str = "nrmse-peak",
    *,
    horizon_days: int | None = None,
) -> tuple[float, float]:
    """Error percentage and closed-form kappa for one parameter set."""
    obs, horizon = _check_inputs(observed, metric, DEFAULT_STEP, horizon_days)
    error, kappa, _ = _bank(params.beta, params.eta, params.epsilon, obs, horizon,
                            DEFAULT_STEP, metric)
    return float(error[0]), float(kappa[0])


def grid_search(
    observed: DailyCountSeries,
    grid: GridSpec = GridSpec(),
    metric: str = "nrmse-peak",
    top_k: int = 10,
    *,
    horizon_days: int | None = None,
    step: float = DEFAULT_STEP,
) -> FitReport:
    """Exhaustive scan of the grid; deterministic collect-then-sort ranking.

    A grid of at least ``_SCREEN_CELLS`` cells, and more than ``top_k``, is
    screened: every bank runs ``_bank`` in float32 at ``_screen_step(step)``,
    and then its flagged cells and its ``_contenders`` re-run in float64 at
    ``step``, in R0-sorted banks, at least one per worker.  An unflagged
    screened error lies within half a margin of its float64 value, so each
    top-k cell and each scan minimum is one of the re-run cells, and every
    cell left screened ranks strictly behind them.  A narrower grid runs in
    float64 alone.

    Raises IntegrationError when no cell has a finite error.
    """
    if not isinstance(top_k, (int, np.integer)) or top_k < 1:
        raise ValueError(f"top_k must be an int >= 1: {top_k!r}")
    obs, horizon = _check_inputs(observed, metric, step, horizon_days)

    bv, ev, xv = grid.beta_values, grid.eta_values, grid.epsilon_values
    B, H, X = (a.ravel() for a in np.meshgrid(bv, ev, xv, indexing="ij"))
    n = B.size
    errors, kappas, flagged = np.empty(n), np.empty(n), np.empty(n, bool)
    # Cells of similar R0 stop at about the same day, so a bank empties evenly.
    by_r0 = np.argsort(B / H, kind="stable")
    banks = np.array_split(by_r0, -(-n // _CHUNK))
    with _bank_pool(len(banks)) as (workers, bank_map):

        def run(cells_of, at_step, dtype=np.float64):
            jobs = [[a[c] for c in cells_of] for a in (B, H, X)]
            each = partial(_bank, obs=obs, horizon=horizon, step=at_step,
                           metric=metric, dtype=dtype)
            for cells, results in zip(cells_of, bank_map(each, *jobs)):
                errors[cells], kappas[cells], flagged[cells] = results

        if n < _SCREEN_CELLS or top_k >= n:
            run(banks, step)
        else:
            run(banks, _screen_step(step), np.float32)
            shape = bv.size, ev.size, xv.size
            rerun = flagged | _contenders(errors.reshape(shape), flagged.reshape(shape),
                                          top_k).ravel()
            cells = by_r0[rerun[by_r0]]
            count = min(cells.size, max(workers, -(-cells.size // _CHUNK)))
            run(np.array_split(cells, count), step)
    if not np.isfinite(errors).any():
        raise IntegrationError("no grid cell has a finite error; check step and rates")

    # Ascending error; ties broken lexicographically by (beta, eta, epsilon).
    order = np.lexsort((X, H, B, errors))
    top = order[: min(top_k, n)]
    candidates = tuple(
        FitCandidate(
            params=SeirParams(float(B[i]), float(H[i]), float(X[i])),
            kappa=float(kappas[i]),
            r0=float(B[i]) / float(H[i]),
            error_pct=float(errors[i]),
        )
        for i in top
    )
    errors.setflags(write=False)
    return FitReport(candidates, grid, errors.reshape(bv.size, ev.size, xv.size))


def average_top_candidates(
    candidates: Sequence[FitCandidate], n: int
) -> FitCandidate:
    """Arithmetic mean of the n best candidates, given best first; r0 is
    mean-beta/mean-eta.  ValueError if one of them blew up (infinite error):
    its kappa of 0 and its rates would enter the mean."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an int >= 1: {n!r}")
    if len(candidates) < n:
        raise ValueError(f"{len(candidates)} candidates, need {n}")
    best = candidates[:n]
    if any(c.error_pct == np.inf for c in best):
        raise ValueError(f"a blown-up candidate (infinite error) among the {n} best")
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
