import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epiwave
from epiwave.cli import EXIT_INVARIANT, EXIT_PARSE, EXIT_USAGE, main
from epiwave.series import DailyCountSeries, load_excess, save_series

SMALL_FIT_ARGS = [
    "--beta-grid", "0.2,0.3,6",
    "--eta-grid", "0.06,0.16,6",
    "--epsilon-grid", "3,3,1",
    "--top-k", "5",
    "--no-timestamp",
    "--quiet",
]


def const_year(year, value):
    n = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
    return DailyCountSeries(start=dt.date(year, 1, 1), values=np.full(n, float(value)))


@pytest.fixture
def registry(tmp_path):
    """Reported 2020 deaths identical to the five constant history years."""
    paths = {}
    for year in range(2015, 2020):
        p = tmp_path / f"h{year}.csv"
        save_series(const_year(year, 220.0), p)
        paths[year] = p
    reported = tmp_path / "reported.csv"
    save_series(const_year(2020, 220.0), reported)
    paths["reported"] = reported
    return paths


def excess_args(paths, **extra):
    args = ["excess", "--reported", str(paths["reported"])]
    for year in (2019, 2018, 2017, 2016, 2015):
        args += ["--history", str(paths[year])]
    args += ["--weights", "0.4,0.3,0.2,0.05,0.05"]
    for key, value in extra.items():
        args += [f"--{key}", value]
    return args


class TestExcess:
    def test_identical_inputs_zero_total(self, registry, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(excess_args(registry, out=str(out)) + ["--no-timestamp"])
        assert rc == 0
        assert "total_excess=0" in capsys.readouterr().out
        series = load_excess(out / "excess.csv")
        assert np.allclose(series.values, 0.0)

    def test_bad_weight_sum_exits_3(self, registry, tmp_path):
        args = ["excess", "--reported", str(registry["reported"])]
        for year in (2019, 2018, 2017, 2016, 2015):
            args += ["--history", str(registry[year])]
        args += ["--weights", "0.4,0.3,0.2,0.05,0.04", "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_INVARIANT

    def test_weight_count_mismatch_exits_3(self, registry, tmp_path):
        args = ["excess", "--reported", str(registry["reported"]),
                "--history", str(registry[2019]),
                "--weights", "0.5,0.5", "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_INVARIANT

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,value\n2020-01-01,abc\n")
        rc = main(["excess", "--reported", str(bad), "--history", str(bad),
                   "--weights", "1.0", "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE

    def test_smoothing_modes(self, registry, tmp_path):
        for mode in ("pre", "post", "none"):
            out = tmp_path / mode
            rc = main(excess_args(registry, out=str(out), smoothing=mode))
            assert rc == 0
            assert np.allclose(load_excess(out / "excess.csv").values, 0.0)


class TestWaves:
    def test_all_zero_input_empty_list(self, tmp_path):
        src = tmp_path / "zero.csv"
        save_series(
            DailyCountSeries(start=dt.date(2020, 1, 1), values=np.zeros(120)), src
        )
        out = tmp_path / "out"
        assert main(["waves", "--input", str(src), "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "waves.json").read_text()) == []

    def test_triangle_fixture_single_wave(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["waves", "--fixture", "triangle", "--out", str(out)])
        assert rc == 0
        assert "waves=1" in capsys.readouterr().out
        (wave,) = json.loads((out / "waves.json").read_text())
        assert wave["rise_days"] == wave["fall_days"]

    def test_istanbul_fixture_four_waves(self, tmp_path):
        out = tmp_path / "out"
        assert main(["waves", "--fixture", "synthetic-istanbul",
                     "--out", str(out), "--quiet"]) == 0
        waves = json.loads((out / "waves.json").read_text())
        assert len(waves) == 4
        starts = [w["start"] for w in waves]
        assert starts == sorted(starts)

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,value\nnope,1\n")
        assert main(["waves", "--input", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE

    def test_missing_input_exits_4(self, tmp_path):
        assert main(["waves", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_round_trip_excess_to_waves(self, registry, tmp_path):
        out = tmp_path / "out"
        assert main(excess_args(registry, out=str(out))) == 0
        rc = main(["waves", "--input", str(out / "excess.csv"),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        assert json.loads((out / "waves.json").read_text()) == []


class TestFit:
    def test_wave_index_out_of_range_exits_4(self, tmp_path):
        rc = main(["fit", "--fixture", "triangle", "--wave-index", "5",
                   "--out", str(tmp_path)] + SMALL_FIT_ARGS)
        assert rc == EXIT_USAGE

    def test_deterministic_byte_identical_outputs(self, tmp_path):
        base = ["fit", "--fixture", "synthetic-istanbul", "--wave-index", "0"]
        for name in ("a", "b"):
            rc = main(base + SMALL_FIT_ARGS + ["--out", str(tmp_path / name)])
            assert rc == 0
        for artifact in ("fit_report.csv", "beta_scan.csv", "eta_scan.csv",
                         "fit_meta.json"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes()

    def test_top_k_rows_written(self, tmp_path):
        rc = main(["fit", "--fixture", "synthetic-istanbul", "--wave-index", "1"]
                  + SMALL_FIT_ARGS + ["--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "fit_report.csv").read_text().splitlines()
        assert lines[0] == "r0,beta,eta,epsilon,kappa,error_pct"
        assert len(lines) == 6  # header + top-k 5
        scan = (tmp_path / "beta_scan.csv").read_text().splitlines()
        assert scan[0] == "param_value,min_error_pct"
        assert len(scan) == 7  # header + six beta values


class TestForecast:
    @pytest.fixture
    def fit_report(self, tmp_path):
        rc = main(["fit", "--fixture", "synthetic-istanbul", "--wave-index", "0"]
                  + SMALL_FIT_ARGS + ["--out", str(tmp_path / "fit")])
        assert rc == 0
        return tmp_path / "fit" / "fit_report.csv"

    def test_single_prior_columns_identical(self, fit_report, tmp_path):
        out = tmp_path / "fc"
        rc = main(["forecast", "--prior-report", str(fit_report), "--top-n", "1",
                   "--start-date", "2021-11-01", "--horizon", "60",
                   "--out", str(out), "--no-timestamp", "--quiet"])
        assert rc == 0
        rows = (out / "forecast.csv").read_text().splitlines()[1:]
        assert len(rows) == 60
        for row in rows:
            _, lo, mid, hi = row.split(",")
            assert lo == mid == hi
        assumptions = json.loads((out / "assumptions.json").read_text())
        assert "generated_at" not in assumptions
        assert assumptions["central"] == assumptions["upper"]

    def test_two_priors_ordered_bands(self, fit_report, tmp_path):
        out = tmp_path / "fc2"
        rc = main(["forecast", "--prior-report", str(fit_report),
                   "--prior-report", str(fit_report), "--top-n", "5",
                   "--start-date", "2021-11-01", "--horizon", "30",
                   "--out", str(out), "--no-timestamp", "--quiet"])
        assert rc == 0
        for row in (out / "forecast.csv").read_text().splitlines()[1:]:
            _, lo, mid, hi = row.split(",")
            assert float(lo) <= float(mid) <= float(hi)

    def test_blow_up_prior_exits_3(self, tmp_path, capsys):
        report = tmp_path / "blow_up.csv"
        report.write_text("r0,beta,eta,epsilon,kappa,error_pct\n"
                          "3.0,0.3,0.1,100000.0,10000.0,1.0\n")
        rc = main(["forecast", "--prior-report", str(report),
                   "--out", str(tmp_path / "fc"), "--quiet"])
        assert rc == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("epiwave: ") and err.count("\n") == 1

    def test_missing_prior_report_exits_2(self, tmp_path, capsys):
        rc = main(["forecast", "--prior-report", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.startswith("epiwave: ")


class TestFinalsize:
    def test_prints_reference_value(self, capsys):
        assert main(["finalsize", "--r0", "2.5"]) == 0
        assert capsys.readouterr().out.strip() == "0.893"

    def test_curve_csv(self, tmp_path):
        rc = main(["finalsize", "--curve", "1,7,13", "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        lines = (tmp_path / "final_size_curve.csv").read_text().splitlines()
        assert lines[0] == "r0,r_f"
        assert len(lines) == 14

    def test_table_csv(self, tmp_path):
        src = tmp_path / "r0s.csv"
        src.write_text("wave,r0\nfirst,2.5\nsecond,1.6\n")
        rc = main(["finalsize", "--table", str(src), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        lines = (tmp_path / "herd_immunity.csv").read_text().splitlines()
        assert lines[0] == "wave,r0,r_f"
        assert len(lines) == 3

    def test_missing_table_exits_2(self, tmp_path, capsys):
        rc = main(["finalsize", "--table", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.startswith("epiwave: ")

    def test_no_action_exits_4(self):
        assert main(["finalsize"]) == EXIT_USAGE


class TestSimulate:
    def test_zero_seed_flat_output(self, tmp_path):
        rc = main(["simulate", "--model", "seir", "--beta", "0.23", "--eta", "0.14",
                   "--epsilon", "3", "--days", "30", "--seed-fraction", "0",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,S,E,I,R"
        first = lines[1].split(",")[1:]
        last = lines[-1].split(",")[1:]
        assert first == last == ["1", "0", "0", "0"]

    def test_deaths_csv_with_kappa(self, tmp_path):
        rc = main(["simulate", "--model", "seir", "--days", "60",
                   "--kappa", "10000", "--start-date", "2020-03-15",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        deaths = (tmp_path / "deaths.csv").read_text().splitlines()
        assert deaths[1].startswith("2020-03-15,")
        assert len(deaths) == 61

    def test_sir_model_columns(self, tmp_path):
        rc = main(["simulate", "--model", "sir", "--days", "20",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,S,I,R"

    def test_step_not_dividing_a_day_exits_3(self, tmp_path, capsys):
        rc = main(["simulate", "--step", "0.3", "--days", "10", "--kappa", "100",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_INVARIANT
        assert "divide" in capsys.readouterr().err
        assert not (tmp_path / "deaths.csv").exists()


    def test_blow_up_exits_3(self, tmp_path, capsys):
        rc = main(["simulate", "--epsilon", "100000", "--days", "20",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("epiwave: ") and err.count("\n") == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# segmentation\nstart_threshold=500\nend_threshold=500\n")
        out1 = tmp_path / "o1"
        rc = main(["waves", "--fixture", "synthetic-istanbul", "--config", str(cfg),
                   "--out", str(out1), "--quiet"])
        assert rc == 0
        assert json.loads((out1 / "waves.json").read_text()) == []
        out2 = tmp_path / "o2"
        rc = main(["waves", "--fixture", "synthetic-istanbul", "--config", str(cfg),
                   "--start-threshold", "10", "--end-threshold", "10",
                   "--out", str(out2), "--quiet"])
        assert rc == 0
        assert len(json.loads((out2 / "waves.json").read_text())) == 4

    def test_bad_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("start_threshold\n")
        rc = main(["waves", "--fixture", "triangle", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == EXIT_PARSE


    def test_config_sets_wave_index_and_top_n(self, tmp_path):
        grid = ["--beta-grid", "0.2,0.3,3", "--eta-grid", "0.06,0.16,3",
                "--epsilon-grid", "3,3,1", "--no-timestamp", "--quiet"]
        base = ["fit", "--fixture", "synthetic-istanbul"] + grid
        assert main(base + ["--wave-index", "1", "--out", str(tmp_path / "flag")]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wave_index=1\n")
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
        assert main(base + ["--out", str(tmp_path / "w0")]) == 0
        report = [(tmp_path / d / "fit_report.csv").read_bytes()
                  for d in ("flag", "cfg", "w0")]
        assert report[0] == report[1] != report[2]

        cfg.write_text("top_n=1\n")
        out = tmp_path / "fc"
        rc = main(["forecast", "--prior-report", str(tmp_path / "flag" / "fit_report.csv"),
                   "--config", str(cfg), "--horizon", "30", "--out", str(out),
                   "--no-timestamp", "--quiet"])
        assert rc == 0
        best = (tmp_path / "flag" / "fit_report.csv").read_text().splitlines()[1]
        beta = float(best.split(",")[1])
        assert json.loads((out / "assumptions.json").read_text())["central"]["beta"] == beta


def test_out_under_a_regular_file_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    rc = main(["waves", "--fixture", "triangle",
               "--out", str(tmp_path / "afile" / "sub"), "--quiet"])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("epiwave: ") and err.count("\n") == 1


def test_data_dir_env_resolves_bare_names(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    save_series(
        DailyCountSeries(start=dt.date(2020, 1, 1), values=np.zeros(60)),
        data / "excess.csv",
    )
    monkeypatch.setenv("EPIWAVE_DATA_DIR", str(data))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    rc = main(["waves", "--input", "excess.csv", "--out", str(out), "--quiet"])
    assert rc == 0
    assert json.loads((out / "waves.json").read_text()) == []


def test_module_entry_point_prints_usage():
    src = str(Path(epiwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "epiwave.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: epiwave")
