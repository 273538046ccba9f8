"""Gap-free daily time series containers and CSV I/O.

All pipeline stages exchange data through these carriers: a series is a
first calendar day plus one value per consecutive day.  Raw death counts
must be non-negative; excess-mortality series may dip below zero.
"""
from __future__ import annotations

import contextlib
import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np


class SeriesError(ValueError):
    """Malformed or inconsistent series data (parse and invariant failures)."""


@dataclass(frozen=True, eq=False)
class DailySeries:
    """One real value per consecutive calendar day starting at ``start``,
    held in the series' own read-only copy of ``values``."""

    start: dt.date
    values: np.ndarray

    allow_negative = True

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.values.ndim != 1 or self.values.size == 0:
            raise SeriesError("series needs a non-empty 1-D value array")
        if not np.all(np.isfinite(self.values)):
            raise SeriesError("series contains non-finite values")
        if not self.allow_negative and np.any(self.values < 0):
            raise SeriesError("negative value in non-negative series")
        if (dt.date.max - self.start).days < self.values.size - 1:
            raise ValueError(f"a {self.values.size}-day series from {self.start} "
                             f"would end after {dt.date.max}")

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
        return type(self)(start=first, values=self.values[i : j + 1])


class DailyCountSeries(DailySeries):
    """Non-negative daily counts (reported deaths, model daily deaths)."""

    allow_negative = False


class ExcessSeries(DailySeries):
    """Daily excess mortality; negative days are preserved."""


@contextlib.contextmanager
def reading(path):
    """``path`` open as UTF-8 text for ``csv``, past any leading byte-order
    mark; failing to open, decode or (inside the block) parse it as CSV is
    one ``SeriesError`` naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SeriesError(f"cannot read {path}: {exc}") from exc


def read_csv(path, columns, row) -> list:
    """``row(*values)`` of each non-blank data row of a CSV file, the twin of
    ``write_csv``: ``columns`` maps header names (case and outer space
    ignored) to the parsers of their fields, in ``row``'s argument order.
    Each row is parsed and built as it is read, so a bad field or a
    ``ValueError`` from ``row`` names the first bad ``path:line`` (a row's
    last line); a file without a data row is an error too."""
    with reading(path) as fh:
        reader = csv.reader(fh)
        names = [name.strip().lower() for name in next(reader, [])]
        index = [names.index(name) for name in columns if names.count(name) == 1]
        if len(index) < len(columns):
            raise SeriesError(f"{path}:1: header needs {','.join(columns)!r}, each once")
        width = max(index) + 1
        fields = list(zip(index, columns.items()))
        rows = []
        for raw in reader:
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            try:
                if len(raw) < width:
                    raise ValueError(f"expected {width} fields, found {len(raw)}")
                values = []
                for i, (name, parse) in fields:
                    try:
                        values.append(parse(raw[i]))
                    except ValueError as exc:
                        raise ValueError(f"bad {name} {raw[i]!r}") from exc
                rows.append(row(*values))
            except ValueError as exc:
                raise SeriesError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise SeriesError(f"{path}: no data rows")
    return rows


def _load(path, cls):
    days = []

    def checked(day, value):
        if days:
            gap = (day - days[-1]).days
            if gap == 0:
                raise ValueError(f"duplicate date {day}")
            if gap < 0:
                raise ValueError(f"dates not increasing at {day}")
            if gap > 1:
                raise ValueError(f"interior gap of {gap - 1} day(s) before {day}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value}")
        if value < 0 and not cls.allow_negative:
            raise ValueError(f"negative value {value}")
        days.append(day)
        return value

    values = read_csv(path, {"date": lambda s: dt.date.fromisoformat(s.strip()),
                             "value": float}, checked)
    return cls(start=days[0], values=values)


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
