"""README's library example runs as written on a synthetic registry."""
import datetime as dt
import re
from functools import partial
from pathlib import Path

import numpy as np

import epiwave
from epiwave import DailyCountSeries, GridSpec, save_series
from epiwave.fixtures import synthetic_istanbul

README = Path(__file__).resolve().parents[1] / "README.md"
# The grid of acceptance criterion 7; the default 210,000 cells take seconds.
SMALL_GRID = ((0.2, 0.3, 8), (0.05, 0.18, 8), (2.0, 4.0, 3))


def test_library_example_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                          re.S)
    for year in range(2015, 2020):
        n = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
        save_series(DailyCountSeries(dt.date(year, 1, 1), np.full(n, 200.0)),
                    tmp_path / f"deaths_{year}.csv")
    excess = synthetic_istanbul()  # 2020-01-01 to the end of 2021
    save_series(DailyCountSeries(excess.start, 200.0 + excess.values),
                tmp_path / "deaths_2020.csv")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(epiwave, "GridSpec", partial(GridSpec, *SMALL_GRID))
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["waves"]) == 4
