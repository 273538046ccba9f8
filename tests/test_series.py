import csv
import dataclasses
import datetime as dt
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwave import (
    FitCandidate,
    GridSpec,
    SeirParams,
    excess_mortality,
    grid_search,
    integrate,
    predict_wave,
    trailing_average_7,
)
from epiwave.fixtures import synthetic_wave
from epiwave.series import (
    DailyCountSeries,
    ExcessSeries,
    SeriesError,
    load_excess,
    load_series,
    read_csv,
    save_series,
    write_csv,
)


def as_tuple(*values):
    return values


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_simple_week(tmp_path):
    rows = "\n".join(
        f"2020-03-{15 + i},{210 + i}" for i in range(7)
    )
    s = load_series(write(tmp_path, "date,value\n" + rows + "\n"))
    assert len(s) == 7
    assert s.start == dt.date(2020, 3, 15)
    assert s.values[0] == 210 and s.values[-1] == 216


def test_load_accepts_crlf(tmp_path):
    s = load_series(
        write(tmp_path, "date,value\r\n2020-01-01,1\r\n2020-01-02,2\r\n")
    )
    assert len(s) == 2


def test_interior_gap_is_error(tmp_path):
    path = write(tmp_path, "date,value\n2020-03-15,1\n2020-03-17,2\n")
    with pytest.raises(SeriesError, match="gap"):
        load_series(path)


def test_duplicate_date_is_error(tmp_path):
    path = write(tmp_path, "date,value\n2020-03-15,1\n2020-03-15,2\n")
    with pytest.raises(SeriesError, match="duplicate"):
        load_series(path)


def test_earlier_date_is_error_with_line_number(tmp_path):
    path = write(tmp_path, "date,value\n2020-03-15,1\n2020-03-16,2\n2020-03-14,3\n")
    with pytest.raises(SeriesError, match=r"csv:4: dates not increasing at 2020-03-14$"):
        load_series(path)


def test_negative_value_is_error_with_line_number(tmp_path):
    path = write(tmp_path, "date,value\n2020-03-15,5\n2020-03-16,-3\n")
    with pytest.raises(SeriesError, match=r":3"):
        load_series(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("load", [load_series, load_excess])
def test_non_finite_value_is_error_with_line_number(tmp_path, load, value):
    path = write(tmp_path, f"date,value\n2020-03-15,5\n2020-03-16,{value}\n")
    with pytest.raises(SeriesError, match=r":3: non-finite value"):
        load(path)


def test_excess_loader_allows_negative(tmp_path):
    s = load_excess(write(tmp_path, "date,value\n2020-03-15,-3\n"))
    assert s.values[0] == -3


def test_malformed_row_reports_line(tmp_path):
    path = write(tmp_path, "date,value\n2020-03-15,5\nnot-a-date,5\n")
    with pytest.raises(SeriesError, match=r":3"):
        load_series(path)


def test_missing_header_is_error(tmp_path):
    with pytest.raises(SeriesError, match="header"):
        load_series(write(tmp_path, "2020-03-15,5\n"))


def test_unreadable_file(tmp_path):
    with pytest.raises(SeriesError, match="cannot read"):
        load_series(tmp_path / "nope.csv")


# Each input fails to read as CSV: csv.Error, UnicodeDecodeError or OSError.
# Python 3.10's csv module rejects NUL; 3.11 reads it, and then the value
# does not parse, so the input fails on both.
UNREADABLE = {
    "missing": None,
    "directory": "dir",
    "undecodable": b"date,value\n2020-01-01,1\xff\n",
    "oversized field": b"date,value\n" + b"x" * 200_000 + b"\n",
    "nul": b"date,value\n2020-01-01,1\x00\n",
}


@pytest.mark.parametrize("kind", list(UNREADABLE))
def test_unreadable_input_is_a_series_error(tmp_path, kind):
    path = tmp_path / "data.csv"
    content = UNREADABLE[kind]
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    for read in (load_series,
                 lambda p: read_csv(p, {"date": str, "value": float}, as_tuple)):
        with pytest.raises(SeriesError, match="data.csv"):
            read(path)


def test_read_csv_finds_columns_by_name(tmp_path):
    path = write(tmp_path, ' Value ,note,DATE\n\n  \n1.5,"a\nb",2020-01-01\n'
                           '2,,2020-01-02,extra\n""\n')
    rows = read_csv(path, {"date": dt.date.fromisoformat, "value": float},
                    lambda day, value: (value, day))
    assert rows == [(1.5, dt.date(2020, 1, 1)), (2.0, dt.date(2020, 1, 2))]


@pytest.mark.parametrize("text, match", [
    ("", r":1: header needs 'date,value'"),
    ("date\n2020-01-01\n", r":1: header needs"),
    ("date,value,Value\n2020-01-01,1,2\n", r":1: header needs 'date,value', each once"),
    ("date,value\n2020-01-01,1\n2020-01-02\n", r":3: expected 2 fields, found 1"),
    ("date,value\n2020-01-01,x\nbad,y\n", r":2: bad value 'x'"),
    ("date,value\n2020-01-01,1\nbad,y\n", r":3: bad date 'bad'"),
    ("date,value\n2020-01-01,\"1\n2\"\n", r":3: bad value '1\\n2'"),
    ("date,value\n", r"data.csv: no data rows"),
])
def test_read_csv_names_the_line(tmp_path, text, match):
    with pytest.raises(SeriesError, match=match):
        read_csv(write(tmp_path, text), {"date": dt.date.fromisoformat, "value": float},
                 as_tuple)


def test_read_csv_names_the_first_bad_line(tmp_path):
    """With two defects, the first in file order is named, whatever its kind."""
    path = write(tmp_path, "date,value\n2020-01-01,x\n2020-01-02\n")
    with pytest.raises(SeriesError, match=r":2: bad value 'x'"):
        read_csv(path, {"date": dt.date.fromisoformat, "value": float}, as_tuple)
    with pytest.raises(SeriesError, match=r":2: bad value 'x'"):
        load_series(path)
    path = write(tmp_path, "date,value\n2020-01-01,1\n2020-01-02,nan\n"
                           "2020-01-03,1\n2020-01-03,1\n")
    with pytest.raises(SeriesError, match=r":3: non-finite value"):
        load_series(path)


def test_round_trip(tmp_path):
    s = DailyCountSeries(
        start=dt.date(2020, 1, 1), values=np.array([1.5, 0.0, 2.25, 3.125])
    )
    save_series(s, tmp_path / "out.csv")
    back = load_series(tmp_path / "out.csv")
    assert back.start == s.start
    assert np.array_equal(back.values, s.values)


@settings(max_examples=50, deadline=None)
@given(st.dates(dt.date(1900, 1, 1), dt.date(2100, 1, 1)),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=40),
       st.sampled_from([(DailyCountSeries, load_series), (ExcessSeries, load_excess)]))
def test_save_load_round_trips_exactly(start, values, kind):
    cls, load = kind
    if not cls.allow_negative:
        values = [abs(v) for v in values]
    series = cls(start=start, values=np.array(values))
    with tempfile.TemporaryDirectory() as tmp:
        save_series(series, Path(tmp) / "s.csv")
        back = load(Path(tmp) / "s.csv")
    assert type(back) is cls and back.start == series.start
    assert back.values.tobytes() == series.values.tobytes()


# No text field holds a lone \r: csv.writer leaves it unquoted before Python
# 3.13, and the artifacts' one text field, the --table wave label, rejects it.
# Python 3.10's csv module cannot write or read NUL.
TEXT = st.text(st.sampled_from(',"\n ') | st.characters(
    codec="utf-8", exclude_characters="\r" if sys.version_info >= (3, 11) else "\r\0"))
# A NaN's sign and payload are not in its repr, so only NaN is left out.
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf")])


@settings(max_examples=200, deadline=None)
@given(st.lists(TEXT, max_size=4),
       st.lists(st.lists(FLOATS | st.dates() | TEXT, max_size=6), max_size=8))
def test_write_csv_round_trips_every_field(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, header, iter(rows))
        assert b"\r" not in path.read_bytes()  # every line ends in \n alone
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.reader(fh))
    assert back == [header, *([str(v) for v in row] for row in rows)]
    for row, texts in zip(rows, back[1:]):
        for value, text in zip(row, texts):
            if isinstance(value, float):
                assert float(text).hex() == value.hex()
            elif isinstance(value, dt.date):
                assert dt.date.fromisoformat(text) == value


def test_window_and_lookup():
    s = DailyCountSeries(start=dt.date(2020, 1, 1), values=np.arange(10.0))
    w = s.window(dt.date(2020, 1, 3), dt.date(2020, 1, 5))
    assert np.array_equal(w.values, [2.0, 3.0, 4.0])
    assert s.values[s.index_of(dt.date(2020, 1, 10))] == 9.0
    with pytest.raises(SeriesError):
        s.index_of(dt.date(2020, 1, 11))
    with pytest.raises(SeriesError, match="window end precedes window start"):
        s.window(dt.date(2020, 1, 5), dt.date(2020, 1, 3))


def test_series_owns_a_read_only_copy():
    a = np.arange(10.0)
    s = DailyCountSeries(dt.date(2020, 1, 1), a)
    assert not np.shares_memory(s.values, a) and a.flags.writeable
    a[0] = np.nan  # the caller's array stays its own
    assert np.array_equal(s.values, np.arange(10.0))
    with pytest.raises(ValueError):
        s.values[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = np.zeros(0)


def test_pipeline_arrays_are_read_only(tmp_path):
    params = SeirParams(0.3, 0.1, 0.5)
    wave = synthetic_wave(params, kappa=1e4)
    path = tmp_path / "wave.csv"
    save_series(wave, path)
    traj = integrate("seir", params, 20)
    report = grid_search(wave, GridSpec((0.25, 0.35, 2), (0.1, 0.1, 1), (0.5, 0.5, 1)))
    band = predict_wave(report.candidates, wave.start, 20)
    arrays = {
        "wave": wave.values,
        "window": wave.window(wave.start, wave.end).values,
        "load_series": load_series(path).values,
        "trailing_average_7": trailing_average_7(wave).values,
        "excess_mortality": excess_mortality(wave, wave).values,
        "states": traj.states,
        "times": traj.times,
        "surface": report.surface,
        "central": band.central.values,
    }
    assert [name for name, a in arrays.items() if a.flags.writeable] == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", [DailyCountSeries, ExcessSeries])
def test_series_rejects_non_finite_array(kind, value):
    with pytest.raises(SeriesError, match="non-finite"):
        kind(start=dt.date(2020, 1, 1), values=np.array([1.0, value]))


PARAMS = SeirParams(0.3, 0.1, 0.5)
CARRIERS = {
    "DailyCountSeries": lambda: DailyCountSeries(dt.date(2020, 1, 1), [1.0, 2.0]),
    "ExcessSeries": lambda: ExcessSeries(dt.date(2020, 1, 1), [-1.0, 2.0]),
    "Trajectory": lambda: integrate("seir", PARAMS, 2),
    "FitReport": lambda: grid_search(synthetic_wave(PARAMS, kappa=1e4), GridSpec(
        (0.25, 0.35, 2), (0.1, 0.1, 1), (0.5, 0.5, 1))),
    "ForecastBand": lambda: predict_wave([FitCandidate(PARAMS, 1e4, 0.3 / 0.1, 0.0)],
                                         dt.date(2020, 1, 1), 14),
}


@pytest.mark.parametrize("build", CARRIERS.values(), ids=CARRIERS)
def test_carriers_compare_and_hash_by_identity(build):
    """Two carriers built alike are two objects: each equals only itself."""
    x, y = build(), build()
    assert x == x and x in [x] and hash(x) == hash(x)
    assert x != y and not x == y and x not in [y]
    assert len({x, y}) == 2


def test_count_series_rejects_negative_array():
    with pytest.raises(SeriesError):
        DailyCountSeries(start=dt.date(2020, 1, 1), values=np.array([1.0, -0.5]))
    ExcessSeries(start=dt.date(2020, 1, 1), values=np.array([1.0, -0.5]))


def test_series_must_end_by_the_last_date():
    last = DailyCountSeries(start=dt.date.max, values=[1.0])
    assert last.end == dt.date.max
    with pytest.raises(ValueError, match="after 9999-12-31") as caught:
        ExcessSeries(start=dt.date(9999, 12, 20), values=np.zeros(13))
    assert not isinstance(caught.value, SeriesError)  # exit 3, not exit 2
