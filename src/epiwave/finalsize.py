"""Final-size relation: the fraction ever infected solves r + exp(-r0*r) = 1.

For r0 <= 1 the only root in [0, 1] is zero (no epidemic); above threshold
the unique positive root is bracketed away from zero and located by
bisection, which cannot escape toward the trivial root.
"""
from __future__ import annotations

import math

import numpy as np


def _residual(r0: float, r: float) -> float:
    return r + math.exp(-r0 * r) - 1.0


def solve_final_size(r0: float) -> float:
    """Positive root of the final-size equation; 0 at or below r0 = 1."""
    if not math.isfinite(r0) or r0 < 0:
        raise ValueError("r0 must be finite and >= 0")
    if r0 <= 1.0:
        return 0.0
    lo, hi = 1e-9, 1.0  # f(lo) < 0 < f(hi) for r0 > 1
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _residual(r0, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def final_size_curve(
    r0_min: float, r0_max: float, points: int
) -> list[tuple[float, float]]:
    """(r0, r_f) pairs over an even r0 grid; r_f is monotone non-decreasing."""
    if not 0 <= r0_min < r0_max:
        raise ValueError("need 0 <= r0_min < r0_max")
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise ValueError(f"points must be an int >= 2: {points!r}")
    r0s = np.linspace(r0_min, r0_max, points).tolist()
    return [(r0, solve_final_size(r0)) for r0 in r0s]
