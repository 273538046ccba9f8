import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwave.finalsize import final_size_curve, solve_final_size
from reference_values import HERD_IMMUNITY_PAIRS


def fixed_point_final_size(r0, tol=1e-13, max_iter=100000):
    """Independent oracle: iterate r <- 1 - exp(-r0*r) from r = 0.5."""
    r = 0.5
    for _ in range(max_iter):
        nxt = 1.0 - math.exp(-r0 * r)
        if abs(nxt - r) < tol:
            return nxt
        r = nxt
    return r


@pytest.mark.parametrize("r0,expected", HERD_IMMUNITY_PAIRS)
def test_herd_immunity_table(r0, expected):
    assert solve_final_size(r0) == pytest.approx(expected, abs=0.005)


def test_below_threshold_no_epidemic():
    assert solve_final_size(0.5) == 0.0
    assert solve_final_size(1.0) == 0.0
    assert solve_final_size(0.0) == 0.0


def test_residual_bound():
    for r0 in np.linspace(0.0, 12.0, 61):
        r_f = solve_final_size(float(r0))
        assert abs(r_f + math.exp(-r0 * r_f) - 1.0) < 1e-10


def test_agrees_with_fixed_point_oracle():
    rng = np.random.default_rng(12345)
    for r0 in rng.uniform(1.0 + 1e-6, 10.0, size=20):
        assert solve_final_size(float(r0)) == pytest.approx(
            fixed_point_final_size(float(r0)), abs=1e-8
        )


def test_monotone_in_r0():
    values = [solve_final_size(r0) for r0 in np.linspace(1.01, 8.0, 50)]
    assert all(a < b for a, b in zip(values, values[1:]))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 60.0), st.floats(0.0, 60.0))
def test_r_f_is_monotone_in_r0(a, b):
    lo, hi = sorted((a, b))
    assert solve_final_size(lo) <= solve_final_size(hi)


def test_limit_toward_one():
    assert solve_final_size(50.0) > 0.9999


def test_saturation_above_five():
    r5 = solve_final_size(5.0)
    r7 = solve_final_size(7.0)
    r3 = solve_final_size(3.0)
    assert abs(r7 - r5) < 0.01
    assert r5 - r3 > 0.05


def test_invalid_r0():
    with pytest.raises(ValueError):
        solve_final_size(-0.1)
    with pytest.raises(ValueError):
        solve_final_size(float("nan"))
    with pytest.raises(ValueError):
        solve_final_size(float("inf"))


class TestCurve:
    def test_subcritical_range_all_zero(self):
        assert all(r_f == 0.0 for _, r_f in final_size_curve(0.0, 1.0, 11))

    def test_monotone_curve(self):
        results = final_size_curve(1.0, 7.0, 121)
        values = [r_f for _, r_f in results]
        assert all(a <= b for a, b in zip(values, values[1:]))
        above = [r_f for r0, r_f in results if r0 > 1.0 + 1e-9]
        assert all(a < b for a, b in zip(above, above[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            final_size_curve(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            final_size_curve(1.0, 2.0, 1)

    @pytest.mark.parametrize("points", [2.5, 7.0, np.float64(3.0)])
    def test_non_integer_points_rejected(self, points):
        with pytest.raises(ValueError, match="points must be an int"):
            final_size_curve(1.0, 7.0, points)
