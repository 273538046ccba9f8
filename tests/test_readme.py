"""README's library example and CLI block run as written on a synthetic registry."""
import csv
import datetime as dt
import json
import os
import re
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

import epiwave
from epiwave import DailyCountSeries, GridSpec, save_series
from epiwave.fixtures import synthetic_istanbul

README = Path(__file__).resolve().parents[1] / "README.md"
# The grid of acceptance criterion 7; the default 210,000 cells take seconds.
SMALL_GRID = ((0.2, 0.3, 8), (0.05, 0.18, 8), (2.0, 4.0, 3))


def blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def write_registries(directory):
    """Flat 2015-2019 histories and a 2020-2021 registry holding the
    synthetic İstanbul excess on top of them."""
    for year in range(2015, 2020):
        n = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
        save_series(DailyCountSeries(dt.date(year, 1, 1), np.full(n, 200.0)),
                    directory / f"deaths_{year}.csv")
    excess = synthetic_istanbul()  # 2020-01-01 to the end of 2021
    save_series(DailyCountSeries(excess.start, 200.0 + excess.values),
                directory / "deaths_2020.csv")


def test_library_example_runs(tmp_path, monkeypatch):
    (block,) = blocks("python")
    write_registries(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(epiwave, "GridSpec", partial(GridSpec, *SMALL_GRID))
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["waves"]) == 4


def test_cli_example_runs(tmp_path):
    (block,) = [b for b in blocks("bash") if "epiwave finalsize --table" in b]
    write_registries(tmp_path)
    src = str(Path(epiwave.__file__).resolve().parents[1])
    epiwave_cli = f'epiwave() {{ {shlex.quote(sys.executable)} -m epiwave.cli "$@"; }}'
    script = f"{epiwave_cli}\n{block}"
    done = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert done.returncode == 0, done.stderr
    assert "0.893" in done.stdout.splitlines()
    run = tmp_path / "run"
    with open(run / "herd_immunity.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3
    fit_meta = json.loads((run / "fit_meta.json").read_text(encoding="utf-8"))
    assert set(fit_meta) == {"metric", "cells", "top_k", "generated_at"}
