"""The two RK4 implementations that the one stepper in ``epiwave.epidemic``
replaced, kept unchanged as references it must match bit for bit.

``_daily_new_removed`` is the cell-batched kernel the grid search used before
its early-stopping bank, ``epidemic.daily_removed``; it runs every cell the
whole horizon, so it is also the reference for every full model curve:
``integrate`` plus ``daily_deaths``, behind ``predict_wave`` and
``synthetic_wave``.  ``integrate`` is the Python-loop single-trajectory
integrator that ``simulate`` and the forecast bands used.
``standard_start`` writes out the seeded start of
``epiwave.epidemic.integrate`` as a plain array.  ``peak_windows`` is the
peak alignment the grid search's scoring did on those full curves before the
bank returned each cell's window itself.
"""
import numpy as np

from epiwave.epidemic import (
    DEFAULT_SEED,
    DEFAULT_STEP,
    IntegrationError,
    SeirParams,
    Trajectory,
)


def _daily_new_removed(
    beta: np.ndarray,
    eta: np.ndarray,
    epsilon: np.ndarray,
    n_days: int,
    step: float = DEFAULT_STEP,
    seed: float = DEFAULT_SEED,
) -> np.ndarray:
    """Unit-scale daily increments of R for a bank of SEIR parameter sets.

    RK4 with fixed step; only whole-day samples of R are retained.
    Returns an array of shape (n_cells, n_days).
    """
    beta = np.asarray(beta, float)
    eta = np.asarray(eta, float)
    epsilon = np.asarray(epsilon, float)
    n = beta.size
    per_day = int(round(1.0 / step))
    if abs(per_day * step - 1.0) > 1e-9:
        raise ValueError("step must divide one day evenly")
    h = step

    S = np.full(n, 1.0 - 2.0 * seed)
    E = np.full(n, seed)
    I = np.full(n, seed)
    R = np.zeros(n)
    daily_r = np.empty((n_days + 1, n))
    daily_r[0] = R

    def rhs(s, e, i):
        force = beta * s * i
        transfer = epsilon * e
        return -force, force - transfer, transfer - eta * i, eta * i

    for day in range(1, n_days + 1):
        for _ in range(per_day):
            k1s, k1e, k1i, k1r = rhs(S, E, I)
            k2s, k2e, k2i, k2r = rhs(
                S + 0.5 * h * k1s, E + 0.5 * h * k1e, I + 0.5 * h * k1i
            )
            k3s, k3e, k3i, k3r = rhs(
                S + 0.5 * h * k2s, E + 0.5 * h * k2e, I + 0.5 * h * k2i
            )
            k4s, k4e, k4i, k4r = rhs(S + h * k3s, E + h * k3e, I + h * k3i)
            S = S + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            E = E + (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
            I = I + (h / 6.0) * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
            R = R + (h / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        daily_r[day] = R
    return np.maximum(np.diff(daily_r, axis=0), 0.0).T


def peak_windows(daily: np.ndarray, before_peak: int, after_peak: int) -> np.ndarray:
    """Each row's days [P - before_peak, P + after_peak), where P is the
    row's ``np.argmax``: its earliest maximum, or its first NaN.  Days
    outside the row read 0."""
    horizon = daily.shape[1]
    peak = np.argmax(daily, axis=1)
    idx = peak[:, None] + np.arange(-before_peak, after_peak)[None, :]
    in_range = (idx >= 0) & (idx < horizon)
    windows = np.take_along_axis(daily, np.clip(idx, 0, horizon - 1), axis=1)
    windows[~in_range] = 0.0
    return windows


def standard_start(system: str, seed: float = DEFAULT_SEED) -> np.ndarray:
    """(S, E, I, R) with ``seed`` exposed and infectious for SEIR; (S, I, R)
    with ``seed`` infectious for SIR."""
    if system == "seir":
        return np.array([1.0 - 2.0 * seed, seed, seed, 0.0])
    return np.array([1.0 - seed, seed, 0.0])


def _array_rhs(y: np.ndarray, params: SeirParams, seir: bool) -> np.ndarray:
    if seir:
        S, E, I, _ = y
        force = params.beta * S * I
        transfer = params.epsilon * E
        removal = params.eta * I
        return np.array([-force, force - transfer, transfer - removal, removal])
    S, I, _ = y
    force = params.beta * S * I
    removal = params.eta * I
    return np.array([-force, force - removal, removal])


def integrate(
    system: str,
    initial,
    params: SeirParams,
    t_end: float,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Classical 4th-order fixed-step integration from t=0 to t_end, from the
    state ``initial``: (S, E, I, R) for SEIR, (S, I, R) for SIR."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if t_end < step:
        raise ValueError("t_end must be >= step")
    seir = system == "seir"
    if not seir and system != "sir":
        raise ValueError(f"unknown system {system!r}")
    labels = ("S", "E", "I", "R") if seir else ("S", "I", "R")

    n_steps = int(np.floor(t_end / step + 1e-9))
    y = np.array(initial, float)
    states = np.empty((n_steps + 1, y.size))
    states[0] = y
    h = step
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = _array_rhs(y, params, seir)
            k2 = _array_rhs(y + 0.5 * h * k1, params, seir)
            k3 = _array_rhs(y + 0.5 * h * k2, params, seir)
            k4 = _array_rhs(y + h * k3, params, seir)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[i] = y
    if not np.all(np.isfinite(states)):
        raise IntegrationError("non-finite state encountered; check step and rates")
    times = np.arange(n_steps + 1) * step
    return Trajectory(times=times, states=states, labels=labels, step=step)
