"""Gap-free daily time series containers and CSV I/O.

All pipeline stages exchange data through these carriers: a series is a
first calendar day plus one value per consecutive day.  Raw death counts
must be non-negative; excess-mortality series may dip below zero.
"""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np


class SeriesError(ValueError):
    """Malformed or inconsistent series data (parse and invariant failures)."""


@dataclass
class DailySeries:
    """One real value per consecutive calendar day starting at ``start``."""

    start: dt.date
    values: np.ndarray

    allow_negative = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise SeriesError("series needs a non-empty 1-D value array")
        if not np.all(np.isfinite(self.values)):
            raise SeriesError("series contains non-finite values")
        if not self.allow_negative and np.any(self.values < 0):
            raise SeriesError("negative value in non-negative series")

    def __len__(self):
        return self.values.size

    @property
    def end(self) -> dt.date:
        return self.start + dt.timedelta(days=self.values.size - 1)

    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=i) for i in range(self.values.size)]

    def index_of(self, day: dt.date) -> int:
        i = (day - self.start).days
        if i < 0 or i >= self.values.size:
            raise SeriesError(f"{day} outside series range {self.start}..{self.end}")
        return i

    def window(self, first: dt.date, last: dt.date):
        """Sub-series covering [first, last] inclusive."""
        i, j = self.index_of(first), self.index_of(last)
        if j < i:
            raise SeriesError("window end precedes window start")
        return type(self)(start=first, values=self.values[i : j + 1].copy())


class DailyCountSeries(DailySeries):
    """Non-negative daily counts (reported deaths, model daily deaths)."""

    allow_negative = False


class ExcessSeries(DailySeries):
    """Daily excess mortality; negative days are preserved."""


def _parse_rows(path) -> list[tuple[int, dt.date, float]]:
    rows = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SeriesError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SeriesError(f"{path}: empty file")
        if [c.strip().lower() for c in header[:2]] != ["date", "value"]:
            raise SeriesError(f"{path}:1: expected header 'date,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise SeriesError(f"{path}:{lineno}: expected 'date,value' row")
            try:
                day = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise SeriesError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            try:
                value = float(row[1])
            except ValueError as exc:
                raise SeriesError(f"{path}:{lineno}: bad value {row[1]!r}") from exc
            rows.append((lineno, day, value))
    if not rows:
        raise SeriesError(f"{path}: no data rows")
    return rows


def _load(path, cls):
    rows = _parse_rows(path)
    prev_line, prev_day, _ = rows[0]
    for lineno, day, _ in rows[1:]:
        if day == prev_day:
            raise SeriesError(f"{path}:{lineno}: duplicate date {day}")
        if day < prev_day:
            raise SeriesError(f"{path}:{lineno}: dates not increasing at {day}")
        gap = (day - prev_day).days
        if gap > 1:
            raise SeriesError(
                f"{path}:{lineno}: interior gap of {gap - 1} day(s) before {day}"
            )
        prev_line, prev_day = lineno, day
    if not cls.allow_negative:
        for lineno, _, value in rows:
            if value < 0:
                raise SeriesError(f"{path}:{lineno}: negative value {value}")
    return cls(start=rows[0][1], values=np.array([v for _, _, v in rows]))


def load_series(path) -> DailyCountSeries:
    """Load a non-negative daily count series from a `date,value` CSV.

    Missing interior days, duplicate dates, out-of-order rows and negative
    values are hard errors (no silent interpolation).
    """
    return _load(path, DailyCountSeries)


def load_excess(path) -> ExcessSeries:
    """Load an excess-mortality series; negative values are allowed."""
    return _load(path, ExcessSeries)


def save_series(series: DailySeries, path) -> None:
    """Write a series as `date,value` CSV (values in shortest round-trip form)."""
    write_csv(path, ("date", "value"), zip(series.dates(), series.values.tolist()))


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV with ``\\n`` line ends.

    A float is written as its repr, the shortest text that reads back to the
    same double, so rows hold Python floats (``.tolist()``), not
    ``np.float64``.  A date is written in ISO form, and a text field is
    quoted only where CSV needs it.  ``rows`` is consumed as a stream.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
