"""SIR and SEIR compartmental models with one fixed-step RK4 stepper.

``integrate`` runs one trajectory; ``SeirBank`` runs many SEIR parameter sets
side by side for the grid search, the forecast bands and the synthetic waves.
Both advance the same (-S, E, I, R) block with ``_rk4_stepper``.

Compartments are population fractions.  R0 = beta/eta.  The observation
map renders daily deaths as the daily increment of the removed compartment
scaled by a fitted constant kappa (deaths per unit removed fraction).
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .series import DailyCountSeries

DEFAULT_STEP = 0.05  # days
DEFAULT_SEED = 1e-5  # initial infected/exposed fraction
_EPOCH = dt.date(2020, 1, 1)  # nominal anchor when no calendar date applies


class IntegrationError(RuntimeError):
    """Non-finite state encountered during integration (parameter blow-up)."""


@dataclass(frozen=True)
class SeirParams:
    beta: float  # transmission rate, 1/day
    eta: float  # removal rate, 1/day
    epsilon: float  # exposed -> infectious rate, 1/day

    def __post_init__(self):
        if not (self.beta > 0 and self.eta > 0 and self.epsilon > 0):
            raise ValueError("all rates must be > 0")

    @property
    def incubation_days(self) -> float:
        return 1.0 / self.epsilon


def basic_reproduction(params: SeirParams) -> float:
    """R0 = beta / eta."""
    return params.beta / params.eta


def _check_fractions(components, total):
    if any(not -1e-9 <= c <= 1.0 + 1e-9 for c in components):
        raise ValueError("compartments must lie in [0, 1]")
    if abs(total - 1.0) > 1e-9:
        raise ValueError("compartments must sum to 1")


@dataclass(frozen=True)
class SirState:
    S: float
    I: float
    R: float

    def __post_init__(self):
        _check_fractions((self.S, self.I, self.R), self.S + self.I + self.R)

    def as_array(self) -> np.ndarray:
        return np.array([self.S, self.I, self.R])


@dataclass(frozen=True)
class SeirState:
    S: float
    E: float
    I: float
    R: float

    def __post_init__(self):
        _check_fractions(
            (self.S, self.E, self.I, self.R), self.S + self.E + self.I + self.R
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.S, self.E, self.I, self.R])


def initial_state(system: str, seed: float = DEFAULT_SEED):
    """Default seeding: symmetric E/I seed for SEIR, single I seed for SIR."""
    if system == "seir":
        return SeirState(S=1.0 - 2.0 * seed, E=seed, I=seed, R=0.0)
    if system == "sir":
        return SirState(S=1.0 - seed, I=seed, R=0.0)
    raise ValueError(f"unknown system {system!r}")


@dataclass
class Trajectory:
    """Uniformly sampled compartment states; times in days from wave start."""

    times: np.ndarray  # (n,)
    states: np.ndarray  # (n, k)
    labels: tuple[str, ...]
    step: float

    def __len__(self):
        return self.times.size

    def compartment(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("t," + ",".join(self.labels) + "\n")
            for t, row in zip(self.times, self.states):
                cols = ",".join(f"{x:.12g}" for x in row)
                fh.write(f"{t:.12g},{cols}\n")


def integrate(
    system: str,
    initial,
    params: SeirParams,
    t_end: float,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Classical 4th-order fixed-step integration from t=0 to t_end."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if t_end < step:
        raise ValueError("t_end must be >= step")
    seir = system == "seir"
    if not seir and system != "sir":
        raise ValueError(f"unknown system {system!r}")
    labels = ("S", "E", "I", "R") if seir else ("S", "I", "R")
    rows = [0, 1, 2, 3] if seir else [0, 2, 3]

    n_steps = int(np.floor(t_end / step + 1e-9))
    y = np.zeros((4, 1))
    y[rows, 0] = initial.as_array()
    y[0] = -y[0]
    rates = np.array([[params.eta], [params.epsilon]])
    advance = _rk4_stepper(y, np.array([-params.beta]), rates, step, seir)
    block = np.empty((n_steps + 1, 4, 1))
    block[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            advance(1)
            block[i] = y
    states = block[:, rows, 0]
    # 0 - (-S) restores S exactly and, unlike negation, keeps S = 0 at +0.
    np.subtract(0.0, states[:, 0], out=states[:, 0])
    if not np.all(np.isfinite(states)):
        raise IntegrationError("non-finite state encountered; check step and rates")
    times = np.arange(n_steps + 1) * step
    return Trajectory(times=times, states=states, labels=labels, step=step)


def _steps_per_day(step: float) -> int:
    """RK4 steps per day; whole days must fall on steps."""
    per_day = round(1.0 / step) if step > 0 else 0
    if per_day < 1 or abs(per_day * step - 1.0) > 1e-9:
        raise ValueError("step must divide one day evenly")
    return per_day


def _rk4_stepper(y, neg_beta, rates, step: float, seir: bool = True):
    """A function advancing the (4, m) state block ``y`` by n RK4 steps in place.

    ``y`` rows are -S, E, I, R and ``rates`` rows are eta and epsilon.  S is
    carried negated and the middle two RK4 stages work on doubled slopes
    (from doubled rates), so every stage input and every sum of the classical
    scheme is one operation on a block.  Negation and doubling are exact, so
    each value is bit-identical to classical RK4 on S, E, I, R.  Without
    ``seir`` the block runs SIR: the force feeds I in place of epsilon * E,
    and an E row of 0 stays 0, as force - force = 0.
    """
    m = y.shape[1]
    half, quarter, sixth = 0.5 * step, 0.25 * step, step / 6.0
    double_rates = 2.0 * rates
    single = neg_beta, rates, rates[0]
    double = 2.0 * neg_beta, double_rates, double_rates[0]
    # Slope block rows: force F = -S', E', I', removal R', transfer; rows
    # 0-3 are the derivative of y.
    total, slope = np.empty((5, m)), np.empty((5, m))
    stage, tmp = np.empty((3, m)), np.empty((3, m))
    y3, total3, total4 = y[:3], total[:3], total[:4]
    slope3, slope4 = slope[:3], slope[:4]
    y_views = y[0], y[2], y[2:0:-1]
    stage_views = stage[0], stage[2], stage[2:0:-1]
    total_views = total[0], total[1], total[2], total[3], total[4], total[3:5]
    slope_views = slope[0], slope[1], slope[2], slope[3], slope[4], slope[3:5]
    mul, add, sub = np.multiply, np.add, np.subtract

    def rhs(state, params, out):
        neg_s, i, i_e = state
        neg_beta, rates, eta = params
        force, d_e, d_i, removal, transfer, removal_transfer = out
        mul(neg_beta, neg_s, out=force)
        mul(force, i, out=force)
        if seir:
            mul(rates, i_e, out=removal_transfer)
        else:
            mul(eta, i, out=removal)
            transfer = force
        sub(force, transfer, out=d_e)
        sub(transfer, removal, out=d_i)

    def advance(n_steps: int):
        for _ in range(n_steps):
            rhs(y_views, single, total_views)
            mul(total3, half, out=tmp)
            add(y3, tmp, out=stage)
            rhs(stage_views, double, slope_views)
            add(total4, slope4, out=total4)
            mul(slope3, quarter, out=tmp)
            add(y3, tmp, out=stage)
            rhs(stage_views, double, slope_views)
            add(total4, slope4, out=total4)
            mul(slope3, half, out=tmp)
            add(y3, tmp, out=stage)
            rhs(stage_views, single, slope_views)
            add(total4, slope4, out=total4)
            mul(total4, sixth, out=total4)
            add(y, total4, out=y)

    return advance


class SeirBank:
    """SEIR parameter sets integrated side by side by fixed-step RK4.

    Each step does the same IEEE operations in the same order as a classical
    RK4 run of one cell, so a cell's numbers do not depend on the bank it is
    integrated in.
    """

    def __init__(self, beta, eta, epsilon):
        self.beta, self.eta, self.epsilon = (
            np.array(a, float, ndmin=1) for a in (beta, eta, epsilon)
        )
        if not (self.beta.ndim == 1
                and self.beta.shape == self.eta.shape == self.epsilon.shape):
            raise ValueError("beta, eta and epsilon must be 1-D and of one length")

    def daily_removed(
        self,
        n_days: int,
        *,
        step: float = DEFAULT_STEP,
        seed: float = DEFAULT_SEED,
        after_peak: int | None = None,
    ) -> np.ndarray:
        """Daily increments of R from the standard seed, shape (n, n_days).

        Day d is R(d+1) - R(d), clipped at zero against round-off.  With
        ``after_peak``, a cell stops once its increments are past their
        maximum for good and the ``after_peak`` days from its peak day on are
        integrated; its later days read 0.  Stopped cells leave the bank in
        batches, and integration ends when none is left.  A cell too fast for
        the step, step * (beta + eta + epsilon) > 2, never stops early.
        """
        per_day = _steps_per_day(step)
        if not 0.0 <= seed <= 0.5:
            raise ValueError("seed must lie in [0, 0.5]")
        n = self.beta.size
        # Cell-major: a row of up to 512 days fits in a page, so day 0 writes
        # every page.  Day-major, the days after the early stop stayed
        # unwritten, and peak memory hung on the kernel's huge-page choices.
        daily = np.zeros((n, n_days))
        y = np.empty((4, n))
        y[0] = -(1.0 - 2.0 * seed)
        y[1:3] = seed
        y[3] = 0.0
        neg_beta, rates = -self.beta, np.stack([self.eta, self.epsilon])
        advance = _rk4_stepper(y, neg_beta, rates, step)
        r_prev = np.zeros(n)
        cells = np.arange(n)
        peak_value = np.full(n, -1.0)
        peak_day = np.zeros(n, int)
        stopped = np.zeros(n, bool)
        # step * (beta + eta + epsilon) bounds |step * lambda| over the
        # Jacobian's eigenvalues.  Above 2, RK4 may turn unstable and blow up
        # after the peak, so such a cell runs the whole horizon.
        stable = step * (self.beta + self.eta + self.epsilon) <= 2.0
        for day in range(n_days):
            if after_peak is not None:
                # beta*S < eta stays true as S falls, and then I'' = eps*E' < 0
                # wherever I' = 0: once I' < 0 as well, I falls for good.
                eta, epsilon = rates
                falling = (stable & (neg_beta * y[0] < eta)
                           & (epsilon * y[1] < eta * y[2]))
            advance(per_day)
            increment = np.maximum(y[3] - r_prev, 0.0)
            r_prev[:] = y[3]
            if after_peak is None:
                daily[:, day] = increment
                continue
            increment[stopped] = 0.0
            daily[cells, day] = increment
            rising = increment > peak_value
            peak_value[rising] = increment[rising]
            peak_day[rising] = day
            stopped |= falling & (peak_day + after_peak <= day + 1)
            if 8 * np.count_nonzero(stopped) >= stopped.size:
                keep = ~stopped
                if not keep.any():
                    break
                y, neg_beta, rates = y[:, keep], neg_beta[keep], rates[:, keep]
                r_prev, cells = r_prev[keep], cells[keep]
                peak_value, peak_day = peak_value[keep], peak_day[keep]
                stopped, stable = stopped[keep], stable[keep]
                advance = _rk4_stepper(y, neg_beta, rates, step)
        return daily


def daily_deaths(
    traj: Trajectory,
    scale: float,
    start_date: dt.date = _EPOCH,
) -> DailyCountSeries:
    """Daily deaths = scale * daily increment of the removed compartment.

    Day d covers the increment R(d+1) - R(d); values are clipped at zero
    against round-off.  The trajectory's step must divide a day.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    per_day = _steps_per_day(traj.step)
    t_end = traj.times[-1]
    n_days = int(np.floor(t_end + 1e-9))
    if n_days < 1:
        raise ValueError("trajectory must cover at least one day")
    removed = traj.compartment("R")
    daily_r = removed[: n_days * per_day + 1 : per_day]
    values = scale * np.maximum(np.diff(daily_r), 0.0)
    return DailyCountSeries(start=start_date, values=values)
