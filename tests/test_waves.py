import dataclasses
import datetime as dt
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwave.fixtures import synthetic_istanbul, triangle_excess
from epiwave.series import ExcessSeries, SeriesError
from epiwave.waves import SegmentationConfig, WaveSegment, segment_waves

TRI_CFG = SegmentationConfig(
    start_threshold=5, end_threshold=5, min_persistence_days=3, min_wave_days=21
)


def excess(values, start=dt.date(2020, 1, 1)):
    return ExcessSeries(start=start, values=np.asarray(values, float))


def test_all_zero_yields_no_waves():
    assert segment_waves(excess(np.zeros(120))) == []


def test_empty_series_rejected():
    # an empty series cannot be built, nor made by emptying a built one
    with pytest.raises(SeriesError):
        excess([])
    s = excess([1.0, 2.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = s.values[:0]


def test_symmetric_triangle_single_wave():
    tri = triangle_excess()
    (seg,) = segment_waves(tri, TRI_CFG)
    assert seg.peak_date == dt.date(2020, 3, 1) + dt.timedelta(days=20)
    assert seg.rise_days == seg.fall_days
    assert seg.total_days == seg.rise_days + seg.fall_days
    # totals match a direct scan of the fixture
    i0 = tri.index_of(seg.start_date)
    i1 = tri.index_of(seg.end_date)
    assert seg.total_deaths == np.maximum(tri.values[i0 : i1 + 1], 0.0).sum()


def test_short_waves_discarded():
    v = np.zeros(60)
    v[10:20] = 50.0  # 10-day blip
    assert segment_waves(excess(v)) == []


def test_peak_tie_breaks_earliest():
    v = np.zeros(80)
    v[10:50] = 20.0
    v[20] = 30.0
    v[30] = 30.0
    (seg,) = segment_waves(excess(v))
    assert seg.peak_date == dt.date(2020, 1, 1) + dt.timedelta(days=20)


def test_segments_disjoint_and_sorted():
    segs = segment_waves(synthetic_istanbul())
    assert len(segs) == 4
    for a, b in zip(segs, segs[1:]):
        assert a.end_date < b.start_date
        assert a.start_date < b.start_date


def test_raising_start_threshold_never_adds_waves():
    series = synthetic_istanbul()
    counts = []
    for threshold in (10.0, 30.0, 60.0, 100.0, 200.0):
        cfg = SegmentationConfig(
            start_threshold=threshold, end_threshold=10.0,
            min_persistence_days=3, min_wave_days=21,
        )
        counts.append(len(segment_waves(series, cfg)))
    assert counts == sorted(counts, reverse=True)


def test_determinism():
    series = synthetic_istanbul()
    assert segment_waves(series) == segment_waves(series)


def test_negative_days_floored_in_totals():
    v = np.zeros(80)
    v[10:50] = 30.0
    v[25] = -5.0
    (seg,) = segment_waves(excess(v))
    assert seg.total_deaths == 39 * 30.0  # the negative day contributes 0


# The lowest thresholds that still open a wave on any positive day.
ANY_CFG = SegmentationConfig(
    start_threshold=0, end_threshold=0, min_persistence_days=1, min_wave_days=1
)


class TestWaveSummary:
    def test_two_day_split_convention(self):
        # peak day deaths count toward the fall side
        (seg,) = segment_waves(excess([0.0, 3.0, 5.0, 0.0]), ANY_CFG)
        assert (seg.rise_days, seg.fall_days, seg.total_days) == (1, 0, 1)
        assert seg.deaths_to_peak == 3.0
        assert seg.deaths_after_peak == 5.0
        assert seg.total_deaths == 8.0

    def test_idempotent_and_partitioned(self):
        tri = triangle_excess()
        (seg,) = segment_waves(tri, TRI_CFG)
        # segmenting the wave's own span again finds the same wave
        assert segment_waves(tri.window(seg.start_date, seg.end_date), TRI_CFG) == [seg]
        assert seg.total_deaths == pytest.approx(
            seg.deaths_to_peak + seg.deaths_after_peak, abs=1e-9
        )

    def test_symmetric_wave_near_even_split(self):
        tri = triangle_excess()
        (seg,) = segment_waves(tri, TRI_CFG)
        # the peak day lands in the fall side, so the halves differ by one peak
        assert abs(seg.deaths_to_peak - seg.deaths_after_peak) <= tri.values.max()

    def test_all_zero_span(self):
        # no day of an all-zero span lies above even a zero threshold
        assert segment_waves(excess(np.zeros(10)), ANY_CFG) == []

    def test_segment_outside_series_is_error(self):
        s = excess(np.ones(10))
        with pytest.raises(SeriesError):
            s.values[s.index_of(s.start + dt.timedelta(days=30))]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-50.0, 200.0), min_size=1, max_size=150),
       st.floats(0.0, 100.0), st.floats(0.0, 1.0), st.integers(1, 5),
       st.integers(1, 30))
def test_waves_ordered_disjoint_and_partitioned(values, start, ratio, persist, length):
    series = excess(values)
    cfg = SegmentationConfig(start_threshold=start, end_threshold=start * ratio,
                             min_persistence_days=persist, min_wave_days=length)
    segments = segment_waves(series, cfg)
    for seg in segments:
        assert seg.rise_days + seg.fall_days == seg.total_days >= length
        assert seg.start_date <= seg.peak_date <= seg.end_date
        i0, i1 = series.index_of(seg.start_date), series.index_of(seg.end_date)
        span = np.maximum(series.values[i0 : i1 + 1], 0.0)
        assert seg.total_deaths == seg.deaths_to_peak + seg.deaths_after_peak
        assert seg.total_deaths == pytest.approx(span.sum(), rel=1e-12)
    for a, b in zip(segments, segments[1:]):
        assert a.end_date < b.start_date


@pytest.mark.parametrize("peak", [dt.date(2020, 1, 1), dt.date(2020, 2, 1)])
def test_segment_dates_out_of_order_rejected(peak):
    with pytest.raises(ValueError, match="wave dates out of order"):
        WaveSegment(start_date=dt.date(2020, 1, 15), peak_date=peak,
                    end_date=dt.date(2020, 1, 20),
                    rise_days=0, fall_days=0, total_days=5, deaths_to_peak=0.0,
                    deaths_after_peak=0.0, total_deaths=0.0)


def test_default_config_is_a_frozen_instance():
    default = inspect.signature(segment_waves).parameters["config"].default
    assert default == SegmentationConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        SegmentationConfig(start_threshold=5, end_threshold=10)
    with pytest.raises(ValueError):
        SegmentationConfig(min_persistence_days=0)
    with pytest.raises(ValueError):
        SegmentationConfig(start_threshold=-1, end_threshold=-1)


@pytest.mark.parametrize("config", [
    dict(start_threshold=np.nan),
    dict(end_threshold=np.nan),
    dict(start_threshold=np.nan, end_threshold=np.nan),
    dict(start_threshold=np.inf),
    dict(min_wave_days=np.nan),
])
def test_non_finite_settings_rejected(config):
    with pytest.raises(ValueError):
        SegmentationConfig(**config)


@pytest.mark.parametrize("config", [
    dict(min_persistence_days=2.5), dict(min_persistence_days=3.0),
    dict(min_wave_days=20.5), dict(min_wave_days=np.float64(21.0)),
])
def test_non_integer_minima_rejected(config):
    with pytest.raises(ValueError, match="must be ints"):
        SegmentationConfig(**config)
    assert SegmentationConfig(min_persistence_days=np.int64(2)).min_persistence_days == 2
