import datetime as dt

import numpy as np
import pytest

from epiwave.mortality import (
    BaselineWeights,
    excess_mortality,
    expected_deaths,
    trailing_average_7,
)
from epiwave.series import DailyCountSeries, SeriesError


def const_year(year, value):
    n = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
    return DailyCountSeries(start=dt.date(year, 1, 1), values=np.full(n, float(value)))


def whole_year(year):
    return dt.date(year, 1, 1), dt.date(year, 12, 31)


def series(values, start=dt.date(2020, 1, 1)):
    return DailyCountSeries(start=start, values=np.asarray(values, float))


class TestTrailingAverage:
    def test_constant_stays_constant(self):
        s = series(np.full(20, 220.0))
        out = trailing_average_7(s)
        assert len(out) == 14
        assert out.start == s.start + dt.timedelta(days=6)
        assert np.allclose(out.values, 220.0)

    def test_ramp_first_window(self):
        out = trailing_average_7(series(np.arange(1.0, 8.0)))
        assert out.values == pytest.approx([4.0])

    def test_single_spike(self):
        out = trailing_average_7(series([0, 0, 0, 0, 0, 0, 7.0]))
        assert out.values == pytest.approx([1.0])

    def test_too_short(self):
        with pytest.raises(SeriesError):
            trailing_average_7(series(np.ones(6)))

    def test_linearity_and_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a, b = rng.uniform(0.1, 5.0, size=2)
            s = rng.uniform(0, 100, size=30)
            t = rng.uniform(0, 100, size=30)
            combined = trailing_average_7(series(a * s + b * t)).values
            separate = a * trailing_average_7(series(s)).values + b * trailing_average_7(
                series(t)
            ).values
            assert np.allclose(combined, separate, atol=1e-10)
            out = trailing_average_7(series(s)).values
            assert out.min() >= s.min() - 1e-12
            assert out.max() <= s.max() + 1e-12


class TestBaselineWeights:
    def test_default_is_published_scheme(self):
        assert BaselineWeights().weights == (0.40, 0.30, 0.20, 0.05, 0.05)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BaselineWeights((0.4, 0.3, 0.2, 0.05, 0.04))

    def test_each_weight_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BaselineWeights((1.5, -0.5))


class TestExpectedDeaths:
    def test_convexity_on_identical_histories(self):
        hists = [const_year(y, 100.0) for y in range(2019, 2014, -1)]
        out = expected_deaths(hists, BaselineWeights(), *whole_year(2020))
        assert np.allclose(out.values, 100.0)

    def test_weighted_dot_product(self):
        hists = [
            const_year(y, v)
            for y, v in zip(range(2019, 2014, -1), (100, 200, 300, 400, 500))
        ]
        out = expected_deaths(hists, BaselineWeights(), *whole_year(2020))
        assert np.allclose(out.values, 205.0)
        assert len(out) == 366  # leap target

    def test_leap_day_from_non_leap_histories(self):
        values = np.zeros(365)
        values[(dt.date(2019, 2, 28) - dt.date(2019, 1, 1)).days] = 10.0
        values[(dt.date(2019, 3, 1) - dt.date(2019, 1, 1)).days] = 30.0
        h = DailyCountSeries(start=dt.date(2019, 1, 1), values=values)
        out = expected_deaths([h], BaselineWeights((1.0,)), *whole_year(2020))
        assert out.values[out.index_of(dt.date(2020, 2, 29))] == pytest.approx(20.0)

    def test_single_history_weight_one_identity(self):
        h = DailyCountSeries(start=dt.date(2019, 1, 1), values=np.arange(365.0))
        out = expected_deaths([h], BaselineWeights((1.0,)), *whole_year(2021))
        assert np.array_equal(out.values, h.values)

    def test_history_leap_day_dropped_for_non_leap_target(self):
        h = const_year(2020, 50.0)  # leap history
        out = expected_deaths([h], BaselineWeights((1.0,)), *whole_year(2021))
        assert len(out) == 365
        assert np.allclose(out.values, 50.0)

    def test_count_mismatch(self):
        # A setting that does not fit the inputs, not a bad series.
        with pytest.raises(ValueError, match="^5 weights for 1 histories$") as info:
            expected_deaths([const_year(2019, 1.0)], BaselineWeights(), *whole_year(2020))
        assert type(info.value) is ValueError

    def test_missing_month_day(self):
        partial = DailyCountSeries(
            start=dt.date(2019, 1, 1), values=np.ones(200)
        )
        with pytest.raises(SeriesError, match="missing month-day"):
            expected_deaths([partial], BaselineWeights((1.0,)), *whole_year(2021))


    def test_span_equals_windowed_years(self):
        rng = np.random.default_rng(3)
        hists = [series(rng.uniform(100, 400, size=len(const_year(y, 0))),
                        start=dt.date(y, 1, 1)) for y in range(2019, 2014, -1)]
        years = [expected_deaths(hists, BaselineWeights(), *whole_year(y))
                 for y in (2020, 2021)]
        first, last = dt.date(2020, 3, 5), dt.date(2021, 8, 17)
        joined = DailyCountSeries(years[0].start,
                                  np.concatenate([y.values for y in years]))
        out = expected_deaths(hists, BaselineWeights(), first, last)
        assert (out.start, out.end) == (first, last)
        assert out.values.tobytes() == joined.window(first, last).values.tobytes()

    def test_history_needs_only_the_span(self):
        jan_jul = series(np.arange(1.0, 213.0), start=dt.date(2019, 1, 1))
        out = expected_deaths([jan_jul], BaselineWeights((1.0,)),
                              dt.date(2021, 2, 1), dt.date(2021, 3, 31))
        assert np.array_equal(out.values, jan_jul.values[31:90])
        with pytest.raises(SeriesError, match="missing month-day 08-01"):
            expected_deaths([jan_jul], BaselineWeights((1.0,)),
                            dt.date(2021, 7, 1), dt.date(2021, 8, 1))

    def test_leap_day_inside_short_span(self):
        h = series(np.arange(365.0) * 2.0 + 1.0, start=dt.date(2019, 1, 1))
        out = expected_deaths([h], BaselineWeights((1.0,)),
                              dt.date(2020, 2, 27), dt.date(2020, 3, 2))
        feb27, feb28, mar1, mar2 = h.window(dt.date(2019, 2, 27), dt.date(2019, 3, 2)).values
        assert out.values.tolist() == [feb27, feb28, 0.5 * (feb28 + mar1), mar1, mar2]


class TestExcessMortality:
    def test_identical_inputs_zero(self):
        s = series(np.full(30, 250.0))
        out = excess_mortality(s, s)
        assert np.allclose(out.values, 0.0)

    def test_constant_difference(self):
        out = excess_mortality(series(np.full(30, 250.0)), series(np.full(30, 220.0)))
        assert np.allclose(out.values, 30.0)

    def test_negative_preserved(self):
        out = excess_mortality(series([200.0]), series([220.0]))
        assert out.values[0] == pytest.approx(-20.0)

    def test_overlap_only(self):
        reported = series(np.full(10, 5.0), start=dt.date(2020, 1, 1))
        expected = series(np.full(10, 2.0), start=dt.date(2020, 1, 6))
        out = excess_mortality(reported, expected)
        assert out.start == dt.date(2020, 1, 6)
        assert len(out) == 5

    def test_empty_overlap_is_error(self):
        with pytest.raises(SeriesError, match="overlap"):
            excess_mortality(
                series([1.0], start=dt.date(2020, 1, 1)),
                series([1.0], start=dt.date(2021, 1, 1)),
            )

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(7)
        reported = series(rng.uniform(100, 400, size=60))
        expected = series(rng.uniform(100, 400, size=60))
        excess = excess_mortality(reported, expected)
        assert np.allclose(excess.values + expected.values, reported.values)
