import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rk4_reference
from epiwave.epidemic import (
    IntegrationError,
    SeirParams,
    SeirState,
    SirState,
    basic_reproduction,
    daily_deaths,
    initial_state,
    integrate,
)

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
        r0 = basic_reproduction(SeirParams(beta, eta, 3.0))
        assert r0 == pytest.approx(expected, abs=0.005)

    def test_equal_rates_give_one(self):
        assert basic_reproduction(SeirParams(0.1, 0.1, 3.0)) == 1.0


@st.composite
def initial_states(draw, system):
    """A random state of the system with some compartments exactly 0."""
    n = 4 if system == "seir" else 3
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    for k in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        raw[k] = 0.0
    total = sum(raw)
    return (SeirState if system == "seir" else SirState)(*(x / total for x in raw))


@st.composite
def runs(draw, max_rate, steps):
    """(system, initial state, params, t_end, step) for ``integrate``."""
    system = draw(st.sampled_from(("sir", "seir")))
    params = SeirParams(*draw(st.tuples(*[st.floats(0.01, max_rate)] * 3)))
    step = draw(st.sampled_from(steps))
    t_end = draw(st.floats(step, 300 * step))
    return system, draw(initial_states(system)), params, t_end, step


class TestIntegrate:
    @pytest.mark.parametrize("initial", [
        SirState(S=0.7, I=0.0, R=0.3),
        SirState(S=1.0, I=0.0, R=0.0),
        SeirState(S=0.8, E=0.0, I=0.0, R=0.2),
    ])
    def test_no_carriers_stay_constant(self, initial):
        system = "seir" if isinstance(initial, SeirState) else "sir"
        traj = integrate(system, initial, WAVE1_PARAMS, 30)
        assert np.array_equal(traj.states, np.tile(initial.as_array(), (len(traj), 1)))

    @settings(max_examples=60, deadline=None)
    @given(runs(max_rate=1.0, steps=(0.01, 0.05, 0.1)))
    def test_conservation_and_positivity_property(self, run):
        traj = integrate(*run)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() < 1e-9
        assert traj.states.min() >= -1e-12

    # Rates up to 10 at step 0.5 include runs that blow up in both.
    @settings(max_examples=100, deadline=None)
    @given(runs(max_rate=10.0, steps=(0.002, 0.05, 0.07, 0.3, 0.5)))
    def test_equals_reference_integrator(self, run):
        try:
            expected = rk4_reference.integrate(*run)
        except IntegrationError:
            with pytest.raises(IntegrationError):
                integrate(*run)
            return
        got = integrate(*run)
        assert got.labels == expected.labels and got.step == expected.step
        assert got.times.tobytes() == expected.times.tobytes()
        assert got.states.tobytes() == expected.states.tobytes()

    def test_disease_free_constant(self):
        traj = integrate("seir", initial_state("seir", seed=0.0), WAVE1_PARAMS, 50)
        assert np.array_equal(traj.states, np.tile(traj.states[0], (len(traj), 1)))

    def test_conservation_positivity_monotonicity(self):
        traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 200)
        total = traj.states.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-9
        assert traj.states.min() >= -1e-12
        S = traj.compartment("S")
        R = traj.compartment("R")
        assert np.all(np.diff(S) <= 1e-15)
        assert np.all(np.diff(R) >= -1e-15)

    def test_peak_matches_fine_step_reference(self):
        # golden values frozen from a step=0.001 reference run
        traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 200, 0.05)
        I = traj.compartment("I")
        k = int(np.argmax(I))
        assert traj.times[k] == pytest.approx(79.096, abs=0.05)
        assert I[k] == pytest.approx(0.3125697753, abs=1e-6)

    def test_step_halving_changes_little(self):
        a = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 200, 0.05)
        b = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 200, 0.025)
        assert np.abs(b.states[::2] - a.states).max() < 1e-6

    def test_fourth_order_convergence(self):
        errors = []
        for h in (0.2, 0.1, 0.05):
            coarse = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 100, h)
            fine = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 100, h / 8)
            errors.append(np.abs(fine.states[::8] - coarse.states).max())
        # each halving should shrink the error by roughly 2^4
        assert errors[0] / errors[1] > 8
        assert errors[1] / errors[2] > 8

    def test_seir_approaches_sir_for_fast_incubation(self):
        params = SeirParams(beta=0.23, eta=0.073, epsilon=1000.0)
        seed = 1e-5
        h = 0.002  # keep epsilon*h inside the RK4 stability region
        sir = integrate("sir", SirState(S=1 - seed, I=seed, R=0.0), params, 120, h)
        seir = integrate(
            "seir", SeirState(S=1 - seed, E=0.0, I=seed, R=0.0), params, 120, h
        )
        a = daily_deaths(sir, 1.0).values
        b = daily_deaths(seir, 1.0).values
        mask = a > a.max() * 1e-6
        assert np.max(np.abs(b[mask] - a[mask]) / a[mask]) < 0.01

    def test_blow_up_is_reported(self):
        # epsilon*h far outside the stability region
        params = SeirParams(beta=0.23, eta=0.073, epsilon=1e5)
        with pytest.raises(IntegrationError):
            integrate("seir", initial_state("seir"), params, 200, 0.05)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate("seir", initial_state("seir"), WAVE1_PARAMS, 10, 0.0)
        with pytest.raises(ValueError):
            integrate("seir", initial_state("seir"), WAVE1_PARAMS, 0.01, 0.05)
        with pytest.raises(ValueError):
            integrate("sird", initial_state("seir"), WAVE1_PARAMS, 10, 0.05)


class TestDailyDeaths:
    def test_disease_free_all_zero(self):
        traj = integrate("seir", initial_state("seir", seed=0.0), WAVE1_PARAMS, 30)
        out = daily_deaths(traj, 1e6)
        assert np.allclose(out.values, 0.0)

    def test_zero_scale_all_zero(self):
        traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 30)
        assert np.allclose(daily_deaths(traj, 0.0).values, 0.0)

    def test_telescoping_total(self):
        traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 150)
        scale = 15000.0
        out = daily_deaths(traj, scale)
        R = traj.compartment("R")
        per_day = int(round(1 / traj.step))
        expected = scale * (R[150 * per_day] - R[0])
        assert out.values.sum() == pytest.approx(expected, abs=1e-9 * scale)

    def test_start_date_carried(self):
        traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 5)
        out = daily_deaths(traj, 1.0, start_date=dt.date(2021, 3, 11))
        assert out.start == dt.date(2021, 3, 11)
        assert len(out) == 5

    def test_sub_day_trajectory_rejected(self):
        traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 0.5, 0.05)
        with pytest.raises(ValueError):
            daily_deaths(traj, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SeirParams(beta=0.0, eta=0.1, epsilon=3.0)
    with pytest.raises(ValueError):
        SeirParams(beta=0.2, eta=-0.1, epsilon=3.0)
    assert SeirParams(0.2, 0.1, 4.0).incubation_days == 0.25


def test_state_validation():
    with pytest.raises(ValueError):
        SirState(S=0.9, I=0.3, R=0.0)  # sums to 1.2
    with pytest.raises(ValueError):
        SeirState(S=1.2, E=-0.2, I=0.0, R=0.0)


def test_trajectory_csv_export(tmp_path):
    traj = integrate("seir", initial_state("seir"), WAVE1_PARAMS, 1, 0.5)
    traj.to_csv(tmp_path / "traj.csv")
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,S,E,I,R"
    assert len(lines) == 4  # header + t = 0, 0.5, 1.0
