"""SIR and SEIR compartmental models on one fixed-step RK4 scheme.

``integrate`` runs one trajectory, behind every full model curve;
``daily_removed`` runs many SEIR parameter sets side by side for the grid
search and returns each one's peak-aligned window, integrating it only until
that window is covered.  Both step the same (-S, E, I, R) state with the
same IEEE operations: in plain floats (``_cell_rk4``) for a trajectory, as
one numpy block (``_rk4_stepper``) for a bank.  Every run starts from the
standard seed (``_seeded_start``): a fraction ``seed`` (``DEFAULT_SEED`` in a
bank) exposed and ``seed`` infectious for SEIR, ``seed`` infectious for SIR,
the rest susceptible.

Compartments are population fractions.  R0 = beta/eta.  The observation
map renders daily deaths as the daily increment of the removed compartment
scaled by a fitted constant kappa (deaths per unit removed fraction).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .series import write_csv

DEFAULT_STEP = 0.1  # days
DEFAULT_SEED = 1e-5  # initial infected/exposed fraction
MAX_STEPS_PER_DAY = 10_000  # a step of 1e-4 day; a 200-day run is 2e6 steps
# step * (beta + eta + epsilon) bounds |step * lambda| over the SEIR
# Jacobian's eigenvalues; above this bound RK4 may turn unstable.
RK4_STABILITY_BOUND = 2.0


class IntegrationError(RuntimeError):
    """Non-finite state encountered during integration (parameter blow-up)."""


@dataclass(frozen=True)
class SeirParams:
    beta: float  # transmission rate, 1/day
    eta: float  # removal rate, 1/day
    epsilon: float  # exposed -> infectious rate, 1/day

    def __post_init__(self):
        if not all(0 < rate < np.inf for rate in (self.beta, self.eta, self.epsilon)):
            raise ValueError(f"non-finite or non-positive rate in {self}")


def _seeded_start(seed: float, seir: bool = True) -> list[float]:
    """The standard start as (-S, E, I, R): ``seed`` in E and in I for SEIR,
    in I alone for SIR, and the rest susceptible.

    ValueError unless every compartment lies in [0, 1], that is, unless
    ``seed`` lies in [0, 0.5] for SEIR or in [0, 1] for SIR.
    """
    top = 0.5 if seir else 1.0
    if not 0.0 <= seed <= top:
        raise ValueError(f"seed must lie in [0, {top:g}]")
    if seir:
        return [-(1.0 - 2.0 * seed), seed, seed, 0.0]
    return [-(1.0 - seed), 0.0, seed, 0.0]


@dataclass(frozen=True)
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
        rows = map(np.ndarray.tolist, np.column_stack((self.times, self.states)))
        write_csv(path, ("t", *self.labels), rows)


def steps_per_day(step: float) -> int:
    """RK4 steps per day: every run covers whole days, and whole days must
    fall on steps.  ValueError unless ``step`` divides one day into 1 to
    ``MAX_STEPS_PER_DAY`` steps."""
    # Outside these bounds 1/step rounds to 0 or past the maximum, or is not finite.
    per_day = round(1.0 / step) if 0.5 / MAX_STEPS_PER_DAY < step < 2.0 else 0
    if not 1 <= per_day <= MAX_STEPS_PER_DAY or abs(per_day * step - 1.0) > 1e-9:
        raise ValueError(f"step {step!r} must divide one day into 1 to "
                         f"{MAX_STEPS_PER_DAY:,} steps")
    return per_day


def integrate(
    system: str,
    params: SeirParams,
    t_end: int,
    step: float = DEFAULT_STEP,
    seed: float = DEFAULT_SEED,
) -> Trajectory:
    """Classical 4th-order fixed-step integration over ``t_end`` whole days,
    from the standard start seeded with ``seed`` (see ``_seeded_start``)."""
    if not isinstance(t_end, (int, np.integer)) or t_end < 1:
        raise ValueError(f"t_end must be a whole number of days >= 1: {t_end!r}")
    n_steps = t_end * steps_per_day(step)
    seir = system == "seir"
    if not seir and system != "sir":
        raise ValueError(f"unknown system {system!r}")
    labels = ("S", "E", "I", "R") if seir else ("S", "I", "R")
    rows = [0, 1, 2, 3] if seir else [0, 2, 3]

    start = _seeded_start(seed, seir)
    cell = _cell_rk4(start, (-params.beta, params.epsilon, params.eta), step, seir)
    # Streamed into the array: a list of per-step tuples would hold ~1 MB.
    flat = chain(start, chain.from_iterable(islice(cell, n_steps)))
    states = np.fromiter(flat, float, 4 * (n_steps + 1)).reshape(-1, 4)[:, rows]
    # 0 - (-S) restores S exactly and, unlike negation, keeps S = 0 at +0.
    np.subtract(0.0, states[:, 0], out=states[:, 0])
    if not np.all(np.isfinite(states)):
        raise IntegrationError("non-finite state encountered; check step and rates")
    times = np.arange(n_steps + 1) * step
    states.setflags(write=False)
    times.setflags(write=False)
    return Trajectory(times=times, states=states, labels=labels, step=step)


def _cell_rk4(state, rates, step: float, seir: bool = True):
    """Yield one cell's (-S, E, I, R) after each RK4 step, in plain floats.

    ``state`` is (-S, E, I, R) and ``rates`` is (-beta, epsilon, eta).  Each
    step does the IEEE operations of one column of ``_rk4_stepper``'s block
    step, on the same operands in the same order, so the two agree bit for
    bit, and with classical RK4 wherever ``_rk4_stepper`` does: unless a
    product underflows.  SIR takes F for epsilon*E, which makes E' = F - F and
    I' = F - eta*I; its E stays 0.
    """
    s, e, i, r = state
    neg_beta, epsilon, eta = rates
    neg_beta2, epsilon2, eta2 = 2.0 * neg_beta, 2.0 * epsilon, 2.0 * eta
    half, quarter, sixth = 0.5 * step, 0.25 * step, step / 6.0
    while True:
        f = neg_beta * s * i
        x = epsilon * e if seir else f
        k_r = eta * i
        k_s, k_e, k_i = f, f - x, x - k_r
        s1, e1, i1 = s + k_s * half, e + k_e * half, i + k_i * half
        f = neg_beta2 * s1 * i1
        x = epsilon2 * e1 if seir else f
        d_r = eta2 * i1
        d_e, d_i = f - x, x - d_r
        k_s, k_e, k_i, k_r = k_s + f, k_e + d_e, k_i + d_i, k_r + d_r
        s1, e1, i1 = s + f * quarter, e + d_e * quarter, i + d_i * quarter
        f = neg_beta2 * s1 * i1
        x = epsilon2 * e1 if seir else f
        d_r = eta2 * i1
        d_e, d_i = f - x, x - d_r
        k_s, k_e, k_i, k_r = k_s + f, k_e + d_e, k_i + d_i, k_r + d_r
        s1, e1, i1 = s + f * half, e + d_e * half, i + d_i * half
        f = neg_beta * s1 * i1
        x = epsilon * e1 if seir else f
        d_r = eta * i1
        d_e, d_i = f - x, x - d_r
        k_s, k_e, k_i, k_r = k_s + f, k_e + d_e, k_i + d_i, k_r + d_r
        s, e, i, r = s + k_s * sixth, e + k_e * sixth, i + k_i * sixth, r + k_r * sixth
        yield s, e, i, r


def _rk4_stepper(y, rates, step: float):
    """A function advancing the (4, m) SEIR block ``y`` by n RK4 steps in place.

    ``y`` rows are -S, E, I, R and ``rates`` rows are -beta, epsilon, eta.
    S is carried negated and the middle two RK4 stages work on doubled slopes
    (from doubled rates), so every stage input and every sum of the classical
    scheme is one operation on a block.  Negation is exact, and doubling is
    exact in the normal range, so each value is bit-identical to classical
    RK4 on S, E, I, R unless a product underflows: a subnormal product
    rounds to fewer bits, and its double can then differ in the last bit
    from the product of a doubled rate.  SEIR at beta = eta = 1,
    epsilon = 0.25 and step 0.05 differs within 2 days from a seed of
    ``sys.float_info.min``, and agrees from a seed of 1e-306.

    Slope block rows are the derivative of y: F = beta*S*I = -S', E', I',
    R'.  ``rates`` times the stage rows -S, E, I puts beta*S, epsilon*E and
    eta*I in rows 1-3; then row 0 gets F, row 1 E' = F - epsilon*E and row 2
    I' = epsilon*E - eta*I.  Each stage input is built in ``stage`` itself,
    so a cell holds 21 numbers (y, total, slope, stage, rates and doubled
    rates): 168 bytes in float64, 0.90 MiB on 5,600 cells, which fits a
    1 MiB L2.  A step there costs about 7.7 ns per cell, and 8.2 ns on
    7,035 cells (1.13 MiB).  A step is one flat loop of 27 calls on views
    bound here, with no Python call of its own; on a narrow block its cost
    is the dispatch of those calls.  The calls take only C-contiguous blocks
    and rows, 0-d constants and positional ``out``: numpy dispatches those
    fastest.  So ``y`` and ``rates`` must be C-ordered, also after a bank's
    compaction; on strided rows a step costs about twice as much.

    The block runs in ``y``'s dtype, float64 or float32, and ``rates`` must
    share it: the scratch blocks and the 0-d constants are made in it, so
    no call promotes to another dtype or allocates.  In float32 a cell
    holds 84 bytes, and the same 27 calls move half as many.
    """
    m, dtype = y.shape[1], y.dtype
    half, quarter, sixth = (np.array(c, dtype) for c in (0.5 * step, 0.25 * step,
                                                          step / 6.0))
    double = rates + rates  # exact, and in rates' own dtype
    total, slope = np.empty((4, m), dtype), np.empty((4, m), dtype)
    stage = np.empty((3, m), dtype)
    y3, y_i, total3, slope3, stage_i = y[:3], y[2], total[:3], slope[:3], stage[2]
    t_p, t_f, t_e, t_i, t_r = total[1:], total[0], total[1], total[2], total[3]
    s_p, s_f, s_e, s_i, s_r = slope[1:], slope[0], slope[1], slope[2], slope[3]
    mul, add, sub = np.multiply, np.add, np.subtract

    def advance(n_steps: int):
        for _ in range(n_steps):
            mul(rates, y3, t_p)  # beta*S, epsilon*E, eta*I
            mul(t_e, y_i, t_f)  # F
            sub(t_f, t_i, t_e)  # E'
            sub(t_i, t_r, t_i)  # I'
            mul(total3, half, stage)
            add(y3, stage, stage)
            mul(double, stage, s_p)
            mul(s_e, stage_i, s_f)
            sub(s_f, s_i, s_e)
            sub(s_i, s_r, s_i)
            add(total, slope, total)
            mul(slope3, quarter, stage)
            add(y3, stage, stage)
            mul(double, stage, s_p)
            mul(s_e, stage_i, s_f)
            sub(s_f, s_i, s_e)
            sub(s_i, s_r, s_i)
            add(total, slope, total)
            mul(slope3, half, stage)
            add(y3, stage, stage)
            mul(rates, stage, s_p)
            mul(s_e, stage_i, s_f)
            sub(s_f, s_i, s_e)
            sub(s_i, s_r, s_i)
            add(total, slope, total)
            mul(total, sixth, total)
            add(y, total, y)

    return advance


def daily_removed(
    beta,
    eta,
    epsilon,
    n_days: int,
    before_peak: int,
    after_peak: int,
    *,
    step: float = DEFAULT_STEP,
    dtype=np.float64,
) -> np.ndarray:
    """Daily increments of R of SEIR parameter sets integrated side by side
    from the standard seed, each around its peak: the grid search's bank.

    Day d is R(d+1) - R(d), clipped at zero against round-off.  Row i holds
    cell i's days [P - before_peak, P + after_peak), P its peak day as
    ``np.argmax`` picks it among days 0 to ``n_days`` - 1: the first maximum,
    or the first NaN.  Days before day 0 or from ``n_days`` on read 0.  A
    cell stops once its increments are past their maximum for good and its
    window is copied out of its ring of recent days; it leaves the bank that
    day, and integration ends when no cell is left.  A cell too fast for the
    step, step * (beta + eta + epsilon) > ``RK4_STABILITY_BOUND``, never
    stops early.

    Each step does the same IEEE operations in the same order on every cell,
    so a cell's numbers do not depend on the bank it is integrated in.  They
    equal a classical RK4 run of the cell bit for bit unless a product
    underflows (see ``_rk4_stepper``).

    ``dtype`` is the bank's floating type: float64, or float32 for a
    screening pass that steps in about half the time.  The state, the rates,
    the ring and the windows are all held in it; a float32 cell that
    overflows (past 3.4e38) reads inf or NaN from then on.
    """
    days = n_days, before_peak, after_peak
    if not (all(isinstance(d, (int, np.integer)) for d in days)
            and n_days >= 1 and before_peak >= 0 and after_peak >= 1):
        raise ValueError("n_days, before_peak and after_peak must be ints >= 1, "
                         f">= 0 and >= 1: {days!r}")
    per_day = steps_per_day(step)
    beta, eta, epsilon = (np.array(a, float, ndmin=1) for a in (beta, eta, epsilon))
    rates = np.stack([-beta, epsilon, eta]).astype(dtype, copy=False)
    n, width = beta.size, before_peak + after_peak
    y = np.empty((4, n), dtype)
    y.T[:] = _seeded_start(DEFAULT_SEED)
    # Row i is cell i, as ``cells`` keeps it; ring slot d % width holds day d.
    ring, windows = np.zeros((n, width), dtype), np.zeros((n, width), dtype)
    advance = _rk4_stepper(y, rates, step)
    r_prev = np.zeros(n, dtype)
    cells = np.arange(n)
    peak_value = np.full(n, -1.0, dtype)
    last_day = np.zeros(n, int)  # the last day of the window of the peak so far
    # An unstable cell may blow up after its peak, so it runs the whole horizon.
    stable = step * (beta + eta + epsilon) <= RK4_STABILITY_BOUND
    for day in range(n_days + after_peak - 1):
        if day < n_days:
            # beta*S < eta stays true as S falls, and then I'' = eps*E' < 0
            # wherever I' = 0: once I' < 0 as well, I falls for good.
            neg_beta, epsilon, eta = rates
            falling = (stable & (neg_beta * y[0] < eta)
                       & (epsilon * y[1] < eta * y[2]))
            advance(per_day)
            increment = np.maximum(y[3] - r_prev, 0.0)
            r_prev[:] = y[3]
        else:  # past the horizon, days read 0 until the last window is copied
            falling, increment = True, np.zeros(cells.size, dtype)
        ring[cells, day % width] = increment
        # np.argmax's order: a NaN rises over a number, nothing over a NaN.
        rising = ~(increment <= peak_value) & (peak_value == peak_value)
        peak_value[rising] = increment[rising]
        last_day[rising] = day + after_peak - 1
        done = cells[last_day == day]
        if done.size:  # ring slot k holds the window's first day
            k = (day + 1) % width
            windows[done, :width - k] = ring[done, k:]
            windows[done, width - k:] = ring[done, :k]
        keep = ~(falling & (last_day <= day))
        if not keep.any():
            break
        if not keep.all():
            # y[:, keep] would come back Fortran-ordered, and every later
            # block step would then run on strided rows.
            y = np.compress(keep, y, axis=1)
            rates = np.compress(keep, rates, axis=1)
            r_prev, cells = r_prev[keep], cells[keep]
            peak_value, last_day = peak_value[keep], last_day[keep]
            stable = stable[keep]
            advance = _rk4_stepper(y, rates, step)
    return windows


def daily_deaths(traj: Trajectory, scale: float) -> np.ndarray:
    """Daily deaths = scale * daily increment of the removed compartment.

    Day d covers the increment R(d+1) - R(d); values are clipped at zero
    against round-off.
    """
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be finite and >= 0")
    daily_r = traj.compartment("R")[:: steps_per_day(traj.step)]
    return scale * np.maximum(np.diff(daily_r), 0.0)
