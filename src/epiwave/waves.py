"""Threshold segmentation of an excess-mortality series into epidemic waves.

A wave opens on the first day of a persistent run above the start threshold
and closes at the first persistent run below the end threshold (or at the
end of the data).  The recorded end date is the last day above the end
threshold before the close, so symmetric humps yield symmetric segments.
Daily values are floored at zero when summing death totals.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .series import ExcessSeries


@dataclass(frozen=True)
class SegmentationConfig:
    start_threshold: float = 10.0  # deaths/day
    end_threshold: float = 10.0  # deaths/day
    min_persistence_days: int = 3
    min_wave_days: int = 21

    def __post_init__(self):
        thresholds = (self.start_threshold, self.end_threshold)
        if not all(0 <= t < np.inf for t in thresholds):
            raise ValueError("thresholds must be finite and >= 0")
        if self.end_threshold > self.start_threshold:
            raise ValueError("end_threshold must not exceed start_threshold")
        minima = (self.min_persistence_days, self.min_wave_days)
        if not all(isinstance(m, (int, np.integer)) and m >= 1 for m in minima):
            raise ValueError("persistence and wave-length minima must be ints >= 1")


@dataclass(frozen=True)
class WaveSegment:
    start_date: dt.date
    peak_date: dt.date
    end_date: dt.date
    rise_days: int
    fall_days: int
    total_days: int
    deaths_to_peak: float
    deaths_after_peak: float
    total_deaths: float

    def __post_init__(self):
        if not self.start_date <= self.peak_date <= self.end_date:
            raise ValueError("wave dates out of order")

    def to_dict(self) -> dict:
        return {
            "start": self.start_date.isoformat(),
            "peak": self.peak_date.isoformat(),
            "end": self.end_date.isoformat(),
            "rise_days": self.rise_days,
            "fall_days": self.fall_days,
            "total_days": self.total_days,
            "deaths_to_peak": self.deaths_to_peak,
            "deaths_after_peak": self.deaths_after_peak,
            "total_deaths": self.total_deaths,
        }


def _run_start(mask: np.ndarray, persistence: int, begin: int) -> int | None:
    """Index of the first run of >= persistence consecutive True at/after begin."""
    count = 0
    for i in range(begin, mask.size):
        count = count + 1 if mask[i] else 0
        if count >= persistence:
            return i - persistence + 1
    return None


def _make_segment(excess: ExcessSeries, i0: int, i1: int) -> WaveSegment:
    values = excess.values
    peak = i0 + int(np.argmax(values[i0 : i1 + 1]))  # earliest day on ties
    floored = np.maximum(values[i0 : i1 + 1], 0.0)
    to_peak = float(np.sum(floored[: peak - i0]))  # peak day counts as fall
    after = float(np.sum(floored[peak - i0 :]))
    day = dt.timedelta
    return WaveSegment(
        start_date=excess.start + day(days=i0),
        peak_date=excess.start + day(days=peak),
        end_date=excess.start + day(days=i1),
        rise_days=peak - i0,
        fall_days=i1 - peak,
        total_days=i1 - i0,
        deaths_to_peak=to_peak,
        deaths_after_peak=after,
        total_deaths=to_peak + after,
    )


def segment_waves(
    excess: ExcessSeries, config: SegmentationConfig = SegmentationConfig()
) -> list[WaveSegment]:
    """Detect epidemic waves; an empty list is a valid outcome."""
    v = excess.values
    p = config.min_persistence_days
    waves: list[WaveSegment] = []
    pos = 0
    while True:
        open_at = _run_start(v > config.start_threshold, p, pos)
        if open_at is None:
            break
        close_at = _run_start(v < config.end_threshold, p, open_at)
        scan_end = v.size - 1 if close_at is None else close_at
        # Trim the segment to the last day still above the end threshold.
        above = np.nonzero(v[open_at : scan_end + 1] > config.end_threshold)[0]
        end_at = open_at + int(above[-1]) if above.size else open_at
        if end_at - open_at >= config.min_wave_days:
            waves.append(_make_segment(excess, open_at, end_at))
        if close_at is None:
            break
        pos = close_at + p
    return waves
