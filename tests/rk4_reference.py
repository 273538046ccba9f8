"""The cell-batched RK4 kernel that the grid search used before ``SeirBank``.

Kept unchanged as the reference that ``SeirBank.daily_removed`` must match
bit for bit.
"""
import numpy as np

from epiwave.epidemic import DEFAULT_SEED, DEFAULT_STEP


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

