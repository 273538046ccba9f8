import collections
import datetime as dt
import inspect
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rk4_reference
from epiwave.calibration import GridSpec, grid_search
from epiwave.epidemic import (
    DEFAULT_STEP,
    IntegrationError,
    SeirParams,
    _cell_rk4,
    _rk4_stepper,
    daily_deaths,
    daily_removed,
    integrate,
    steps_per_day,
)
from epiwave.series import DailyCountSeries

# Per-wave mean parameters used as a realistic regression point.
WAVE1_PARAMS = SeirParams(beta=0.231419776, eta=0.073068182, epsilon=3.0)


class TestBasicReproduction:
    @pytest.mark.parametrize(
        "beta,eta,expected",
        [
            (0.232846715, 0.072992701, 3.19),
            (0.231098431, 0.142653352, 1.62),
        ],
    )
    def test_reference_rows(self, beta, eta, expected):
        params = SeirParams(beta, eta, 3.0)
        assert params.beta / params.eta == pytest.approx(expected, abs=0.005)

    def test_equal_rates_give_one(self):
        params = SeirParams(0.1, 0.1, 3.0)
        assert params.beta / params.eta == 1.0


# The largest seed of each system: it leaves no one susceptible.
TOP_SEED = {"sir": 1.0, "seir": 0.5}


@st.composite
def runs(draw, max_rate, steps):
    """(system, params, t_end, step, seed) for ``integrate``: whole days, at
    most 300 steps unless one day takes more."""
    system = draw(st.sampled_from(("sir", "seir")))
    params = SeirParams(*draw(st.tuples(*[st.floats(0.01, max_rate)] * 3)))
    step = draw(st.sampled_from(steps))
    t_end = draw(st.integers(1, max(1, round(300 * step))))
    seed = draw(st.floats(0.0, TOP_SEED[system]))
    return system, params, t_end, step, seed


class TestIntegrate:
    # integrate starts at R = 0, so states with R > 0 go to the RK4 step
    # integrate runs, as (-S, E, I, R).
    @pytest.mark.parametrize("initial", [
        ("sir", (0.7, 0.0, 0.0, 0.3)),
        ("sir", (1.0, 0.0, 0.0, 0.0)),
        ("seir", (0.8, 0.0, 0.0, 0.2)),
    ])
    def test_no_carriers_stay_constant(self, initial):
        system, (s, e, i, r) = initial
        rates = (-WAVE1_PARAMS.beta, WAVE1_PARAMS.epsilon, WAVE1_PARAMS.eta)
        cell = _cell_rk4((-s, e, i, r), rates, DEFAULT_STEP, system == "seir")
        assert list(islice(cell, 300)) == [(-s, e, i, r)] * 300

    @pytest.mark.parametrize("system", ["sir", "seir"])
    def test_seed_zero_stays_constant(self, system):
        traj = integrate(system, WAVE1_PARAMS, 30, seed=0.0)
        start = rk4_reference.standard_start(system, 0.0)
        assert np.array_equal(traj.states, np.tile(start, (len(traj), 1)))

    @settings(max_examples=60, deadline=None)
    @given(runs(max_rate=1.0, steps=(0.01, 0.05, 0.1)))
    def test_conservation_and_positivity_property(self, run):
        traj = integrate(*run)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() < 1e-9
        assert traj.states.min() >= -1e-12

    # Rates up to 10 at steps 0.5 and 1 include runs that blow up in both.  Doubling
    # is exact only in the normal range, so a run whose classical RK4 rounds
    # a product into the subnormal range, as from a seed near the smallest
    # normal float, may differ in the last bit; it is skipped.
    @settings(max_examples=100, deadline=None)
    @given(runs(max_rate=10.0, steps=(0.002, 0.05, 0.25, 0.5, 1.0)))
    def test_equals_reference_integrator(self, run):
        system, params, t_end, step, seed = run
        start = rk4_reference.standard_start(system, seed)
        try:
            with np.errstate(under="raise"):
                expected = rk4_reference.integrate(system, start, params, t_end, step)
        except FloatingPointError:
            assume(False)
        except IntegrationError:
            with pytest.raises(IntegrationError):
                integrate(*run)
            return
        got = integrate(*run)
        assert got.labels == expected.labels and got.step == expected.step
        assert got.times.tobytes() == expected.times.tobytes()
        assert got.states.tobytes() == expected.states.tobytes()

    def test_disease_free_constant(self):
        traj = integrate("seir", WAVE1_PARAMS, 50, seed=0.0)
        assert np.array_equal(traj.states, np.tile(traj.states[0], (len(traj), 1)))

    def test_conservation_positivity_monotonicity(self):
        traj = integrate("seir", WAVE1_PARAMS, 200)
        total = traj.states.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-9
        assert traj.states.min() >= -1e-12
        S = traj.compartment("S")
        R = traj.compartment("R")
        assert np.all(np.diff(S) <= 1e-15)
        assert np.all(np.diff(R) >= -1e-15)

    def test_peak_matches_fine_step_reference(self):
        # golden values frozen from a step=0.001 reference run
        traj = integrate("seir", WAVE1_PARAMS, 200, 0.05)
        I = traj.compartment("I")
        k = int(np.argmax(I))
        assert traj.times[k] == pytest.approx(79.096, abs=0.05)
        assert I[k] == pytest.approx(0.3125697753, abs=1e-6)

    def test_step_halving_changes_little(self):
        a = integrate("seir", WAVE1_PARAMS, 200, 0.05)
        b = integrate("seir", WAVE1_PARAMS, 200, 0.025)
        assert np.abs(b.states[::2] - a.states).max() < 1e-6

    def test_fourth_order_convergence(self):
        errors = []
        for h in (0.2, 0.1, 0.05):
            coarse = integrate("seir", WAVE1_PARAMS, 100, h)
            fine = integrate("seir", WAVE1_PARAMS, 100, h / 8)
            errors.append(np.abs(fine.states[::8] - coarse.states).max())
        # each halving should shrink the error by roughly 2^4
        assert errors[0] / errors[1] > 8
        assert errors[1] / errors[2] > 8

    def test_seir_approaches_sir_for_fast_incubation(self):
        params = SeirParams(beta=0.23, eta=0.073, epsilon=1000.0)
        seed = 1e-5
        h = 0.002  # keep epsilon*h inside the RK4 stability region
        # SEIR's exposed seed turns infectious at once, so SIR seeds both in I.
        sir = integrate("sir", params, 120, h, seed=2 * seed)
        seir = integrate("seir", params, 120, h, seed=seed)
        a = daily_deaths(sir, 1.0)
        b = daily_deaths(seir, 1.0)
        mask = a > a.max() * 1e-6
        assert np.max(np.abs(b[mask] - a[mask]) / a[mask]) < 0.01

    def test_blow_up_is_reported(self):
        # epsilon*h far outside the stability region
        params = SeirParams(beta=0.23, eta=0.073, epsilon=1e5)
        with pytest.raises(IntegrationError):
            integrate("seir", params, 200, 0.05)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate("seir", WAVE1_PARAMS, 10, 0.0)
        with pytest.raises(ValueError):
            integrate("seir", WAVE1_PARAMS, 0.01, 0.05)
        with pytest.raises(ValueError):
            integrate("sird", WAVE1_PARAMS, 10, 0.05)

    def test_nan_step_rejected_by_name(self):
        with pytest.raises(ValueError, match="step"):
            integrate("seir", WAVE1_PARAMS, 10, float("nan"))


def test_every_run_takes_whole_days_at_a_step_that_divides_a_day():
    """A trajectory, a bank and a grid search take a step only if it divides
    one day into 1 to 10,000 steps, and reject any other with one message."""
    wave = DailyCountSeries(dt.date(2020, 3, 1), np.arange(1.0, 15.0))
    grid = GridSpec((0.3, 0.3, 1), (0.1, 0.1, 1), (3.0, 3.0, 1))
    runs = {
        "integrate": lambda step: integrate("seir", WAVE1_PARAMS, 2, step),
        "daily_removed": lambda step: daily_removed(0.3, 0.1, 3.0, 2, 2, 2, step=step),
        "grid_search": lambda step: grid_search(wave, grid, horizon_days=14, step=step),
    }
    for step in (0.0, -0.05, float("nan"), float("inf"), 0.3, 20.0, 1e-300, 5e-324):
        message = f"step {step!r} must divide one day into 1 to 10,000 steps"
        for name, run in runs.items():
            with pytest.raises(ValueError) as raised:
                run(step)
            assert str(raised.value) == message, name
    for step in (1e-4, 0.25, 1.0):
        for run in runs.values():
            run(step)
        traj = integrate("seir", WAVE1_PARAMS, 3, step)
        assert len(traj) == 3 * steps_per_day(step) + 1


@settings(max_examples=100, deadline=None)
@given(rates=st.tuples(*[st.floats(0.01, 10.0)] * 3), per_day=st.integers(1, 20),
       n_days=st.integers(1, 60))
def test_trajectory_starts_where_a_bank_does(rates, per_day, n_days):
    """A SEIR trajectory's unit-scale daily deaths are its cell's days in the
    grid search's bank, bit for bit: both start from the one seeded state.
    A window of the horizon on each side of the peak holds every day."""
    params, step = SeirParams(*rates), 1.0 / per_day
    try:
        traj = integrate("seir", params, n_days, step)
    except IntegrationError:
        assume(False)
    dd = daily_deaths(traj, 1.0)
    window = daily_removed(*rates, n_days, n_days, n_days, step=step)[0]
    first = n_days - int(np.argmax(dd))
    assert window[first:first + n_days].tobytes() == dd.tobytes()


class CountingNumpy:
    """numpy, except that each multiply, add and subtract call is counted by
    ufunc name and operand kinds: 'contiguous' or 'strided' for an array, the
    type name for anything else.  Each array it makes is counted in ``made``
    by name and shape: those of the constructors, and each result of a
    counted call that got no ``out``."""

    COUNTED = ("multiply", "add", "subtract")
    CONSTRUCTORS = ("array", "asarray", "ascontiguousarray", "empty", "zeros",
                    "ones", "full", "empty_like", "zeros_like", "ones_like",
                    "full_like", "copy", "stack", "concatenate", "compress")

    def __init__(self):
        self.calls = collections.Counter()
        self.made = collections.Counter()

    def __getattr__(self, name):
        func = getattr(np, name)
        if name in self.CONSTRUCTORS:
            def made(*args, **kwargs):
                result = func(*args, **kwargs)
                self.made[name, result.shape] += 1
                return result

            return made
        if name not in self.COUNTED:
            return func

        def counted(*args, **kwargs):
            kinds = tuple(
                ("contiguous" if a.flags.c_contiguous else "strided")
                if isinstance(a, np.ndarray) else type(a).__name__
                for a in (*args, *kwargs.values())
            )
            self.calls[name, kinds] += 1
            result = func(*args, **kwargs)
            if len(args) <= func.nin and "out" not in kwargs:
                self.made[name, result.shape] += 1
            return result

        return counted


def test_rk4_step_dispatch_budget(monkeypatch):
    """A block step makes at most 27 numpy calls, on C-contiguous arrays only.

    On small blocks a step's cost is numpy's per-call dispatch, which rises
    with every call and with each strided or Python-float operand.  The banks
    have 1 cell, as ``fit_error``'s, and 11 cells.  The calls of 100 days of
    4 steps are those of a 101-day run less those of a 1-day run.
    """
    counting = CountingNumpy()
    monkeypatch.setattr("epiwave.epidemic.np", counting)

    def calls(bank, n_days):
        counting.calls.clear()
        daily_removed(*bank, n_days, n_days, n_days, step=0.25)
        return collections.Counter(counting.calls)

    for n in (1, 11):
        bank = np.linspace(0.2, 0.3, n), np.full(n, 0.1), np.full(n, 3.0)
        hundred_days = calls(bank, 101) - calls(bank, 1)
        assert sum(hundred_days.values()) <= 27 * 4 * 100, n
        for name, kinds in hundred_days:
            assert "strided" not in kinds and "float" not in kinds, (n, name, kinds)


def test_rk4_block_step_allocates_nothing(monkeypatch):
    """A block stepper allocates its scratch blocks once, and a step nothing.

    Each stage input is built in the 3-row stage block, so the scratch is
    the 4-row total and slope blocks and that stage block; the step
    constants are 0-d.  A temporary or an extra buffer in the step would
    push a block's working set out of cache.  The first half counts numpy's
    calls on blocks of 1 cell, as ``fit_error``'s bank, and 11 cells.
    Temporaries made by operators do not pass through ``np``, so the second
    half watches numpy's allocations, which it reports to ``tracemalloc``, on
    an unpatched 4,096-cell block: 100 steps must not allocate one row's
    32 KiB.
    """
    def block(m):
        y = np.empty((4, m))
        y.T[:] = (-(1.0 - 2e-5), 1e-5, 1e-5, 0.0)
        beta = np.linspace(0.2, 0.3, m)
        return y, np.stack([-beta, np.full(m, 3.0), np.full(m, 0.1)])

    counting = CountingNumpy()
    monkeypatch.setattr("epiwave.epidemic.np", counting)
    for m in (1, 11):
        counting.calls.clear()
        counting.made.clear()
        advance = _rk4_stepper(*block(m), 0.25)
        assert sorted(shape for _, shape in counting.made.elements() if shape) == [
            (3, m), (4, m), (4, m)]
        counting.made.clear()
        advance(100)
        assert counting.calls and not counting.made, m

    monkeypatch.undo()
    advance = _rk4_stepper(*block(4096), 0.25)
    advance(1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        advance(100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 4096 * 8


def test_rk4_float32_block_step_stays_float32_and_allocates_nothing():
    """A float32 block makes its scratch blocks and 0-d step constants in
    float32 too.  Under NEP 50 a float64 0-d constant is not demoted: every
    call it enters would run in float64, silently.  So each array the step
    reads is float32, and 100 steps of a 4,096-cell block allocate less
    than one float32 row, 16 KiB."""
    m = 4096
    y = np.empty((4, m), np.float32)
    y.T[:] = (-(1.0 - 2e-5), 1e-5, 1e-5, 0.0)
    beta = np.linspace(0.2, 0.3, m)
    rates = np.stack([-beta, np.full(m, 3.0), np.full(m, 0.1)]).astype(np.float32)
    advance = _rk4_stepper(y, rates, 0.25)
    arrays = {name: value for name, value in
              inspect.getclosurevars(advance).nonlocals.items()
              if isinstance(value, np.ndarray)}
    assert [arrays[name].shape for name in ("half", "quarter", "sixth")] == [()] * 3
    assert {name for name, a in arrays.items() if a.dtype != np.float32} == set()
    assert arrays["total"].shape == arrays["slope"].shape == (4, m)
    assert arrays["stage"].shape == (3, m)
    advance(1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        advance(100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < m * 4
    assert y.dtype == np.float32 and np.isfinite(y).all()


def test_rk4_block_stays_contiguous_after_compaction(monkeypatch):
    """An early-stopped bank's compacted blocks keep C-contiguous operands.

    Boolean indexing of a block's columns returns a Fortran-ordered copy.
    This bank compacts from 40 cells down to the last one.
    """
    counting = CountingNumpy()
    monkeypatch.setattr("epiwave.epidemic.np", counting)
    daily_removed(np.linspace(0.15, 0.6, 40), np.full(40, 0.1), np.full(40, 3.0),
                  240, 10, 10, step=0.25)
    strided = {key: n for key, n in counting.calls.items() if "strided" in key[1]}
    assert counting.calls and not strided, (
        f"{sum(strided.values())} of {counting.calls.total()} calls strided")


class TestDailyDeaths:
    def test_disease_free_all_zero(self):
        traj = integrate("seir", WAVE1_PARAMS, 30, seed=0.0)
        out = daily_deaths(traj, 1e6)
        assert np.allclose(out, 0.0)

    def test_zero_scale_all_zero(self):
        traj = integrate("seir", WAVE1_PARAMS, 30)
        assert np.allclose(daily_deaths(traj, 0.0), 0.0)

    def test_telescoping_total(self):
        traj = integrate("seir", WAVE1_PARAMS, 150)
        scale = 15000.0
        out = daily_deaths(traj, scale)
        R = traj.compartment("R")
        per_day = int(round(1 / traj.step))
        expected = scale * (R[150 * per_day] - R[0])
        assert out.sum() == pytest.approx(expected, abs=1e-9 * scale)

    def test_sub_day_trajectory_rejected(self):
        with pytest.raises(ValueError):
            integrate("seir", WAVE1_PARAMS, 0.5, 0.05)


def test_params_validation():
    with pytest.raises(ValueError):
        SeirParams(beta=0.0, eta=0.1, epsilon=3.0)
    with pytest.raises(ValueError):
        SeirParams(beta=0.2, eta=-0.1, epsilon=3.0)


@pytest.mark.parametrize("rates", [
    (np.inf, 0.1, 3.0), (0.2, np.nan, 3.0), (0.2, 0.1, np.inf), (0.2, 0.1, -np.inf),
    (np.nan, np.nan, np.nan),
])
def test_params_reject_non_finite_rates(rates):
    with pytest.raises(ValueError, match="non-finite or non-positive rate"):
        SeirParams(*rates)


def test_state_validation():
    """A seed that would put a compartment outside [0, 1] is rejected."""
    for system, top in TOP_SEED.items():
        integrate(system, WAVE1_PARAMS, 1, seed=top)
        for seed in (-1e-12, float(np.nextafter(top, 2.0)), float("nan")):
            with pytest.raises(ValueError, match="seed"):
                integrate(system, WAVE1_PARAMS, 1, seed=seed)


def test_trajectory_csv_export(tmp_path):
    traj = integrate("seir", WAVE1_PARAMS, 1, 0.5)
    traj.to_csv(tmp_path / "traj.csv")
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,S,E,I,R"
    assert len(lines) == 4  # header + t = 0, 0.5, 1.0
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 0], traj.times)
    assert np.array_equal(rows[:, 1:], traj.states)
