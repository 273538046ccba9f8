import csv
import datetime as dt
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epiwave
from epiwave.cli import EXIT_INVARIANT, EXIT_PARSE, EXIT_USAGE, main
from epiwave.fixtures import triangle_excess
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

    def test_blown_up_rows_are_left_out_of_the_mean(self, tmp_path):
        """--top-n stops at the last finite-error row: the forecast equals one
        from the report without its blown-up (inf) row."""
        finite = FIT_REPORT_HEADER + ("2.0,0.2,0.1,3.0,1000.0,5.0\n"
                                      "2.5,0.25,0.1,3.0,1000.0,6.0\n")
        for name, text in (("finite", finite),
                           ("blown", finite + "3.0,0.3,0.1,100000.0,0.0,inf\n")):
            (tmp_path / f"{name}.csv").write_text(text)
            assert main(["forecast", "--prior-report", str(tmp_path / f"{name}.csv"),
                         "--horizon", "30", "--out", str(tmp_path / name),
                         "--no-timestamp", "--quiet"]) == 0
        for artifact in ("forecast.csv", "assumptions.json"):
            assert ((tmp_path / "finite" / artifact).read_bytes()
                    == (tmp_path / "blown" / artifact).read_bytes())

    def test_report_without_a_finite_row_exits_2(self, tmp_path, capsys):
        report = tmp_path / "blown.csv"
        report.write_text(FIT_REPORT_HEADER + "3.0,0.3,0.1,100000.0,0.0,inf\n")
        out = tmp_path / "fc"
        rc = main(["forecast", "--prior-report", str(report), "--out", str(out),
                   "--quiet"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"epiwave: {report}: no row with a finite error_pct\n")
        assert not out.exists()

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

    def test_table_label_with_comma_reads_back(self, tmp_path):
        src = tmp_path / "r0s.csv"
        src.write_text('wave,r0\n"2020, first",3.17\n', encoding="utf-8")
        rc = main(["finalsize", "--table", str(src), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        with open(tmp_path / "herd_immunity.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and list(rows[0]) == ["wave", "r0", "r_f"]
        assert rows[0]["wave"] == "2020, first" and float(rows[0]["r0"]) == 3.17

    def test_table_label_with_carriage_return_exits_2(self, tmp_path, capsys):
        src = tmp_path / "r0s.csv"
        src.write_bytes(b'wave,r0\na,2.5\n"b\rc",1.6\n')
        out = tmp_path / "out"
        rc = main(["finalsize", "--table", str(src), "--out", str(out), "--quiet"])
        assert rc == EXIT_PARSE
        assert "carriage return" in capsys.readouterr().err
        assert not (out / "herd_immunity.csv").exists()

    def test_missing_table_exits_2(self, tmp_path, capsys):
        rc = main(["finalsize", "--table", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.startswith("epiwave: ")

    def test_table_without_rows_exits_2(self, tmp_path, capsys):
        src = tmp_path / "r0s.csv"
        src.write_text("wave,r0\n")
        out = tmp_path / "out"
        rc = main(["finalsize", "--table", str(src), "--out", str(out), "--quiet"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == f"epiwave: {src}: no data rows\n"
        assert not out.exists()

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
        assert first == last == ["1.0", "0.0", "0.0", "0.0"]

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


    @pytest.mark.parametrize("command, line", [
        (["fit", "--beta-grid", "0.2,0.3,2", "--epsilon-grid", "3,3,1"], "top_k=abc"),
        (["fit", "--beta-grid", "0.2,0.3,2", "--epsilon-grid", "3,3,1"],
         "eta_grid=0.1,0.2"),
        (["waves"], "min_wave_days=3.5"),
        (["simulate", "--days", "10", "--kappa", "100"], "start_date=2020-13-01"),
    ])
    def test_unparsable_config_value_exits_2_naming_the_key(
            self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        fixture = [] if command[0] == "simulate" else ["--fixture", "triangle"]
        rc = main(command + fixture + ["--config", str(cfg), "--out", str(tmp_path),
                                       "--no-timestamp", "--quiet"])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("epiwave: ") and err.count("\n") == 1
        assert line.split("=")[0] in err

    @pytest.mark.parametrize("text, line", [
        ("top_k=3\ntop_k=5\n", 2),
        ("# two commands' keys\nhorizon=30\ntop_k=3\n horizon = 60\n", 4),
    ], ids=["same-command", "other-command"])
    def test_config_key_given_twice_exits_2(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main(TRIANGLE_FIT + ["--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == EXIT_PARSE
        key = text.splitlines()[line - 1].split("=")[0].strip()
        assert capsys.readouterr().err == (
            f"epiwave: {cfg}:{line}: duplicate key {key!r}\n")
        assert not out.exists()

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


@pytest.mark.parametrize("command", ["waves", "fit"])
@pytest.mark.parametrize("source", [
    ["--fixture", "triangle", "--input", "missing.csv"],
    ["--input", "missing.csv", "--fixture", "triangle"],
    [],
])
def test_exactly_one_of_input_and_fixture(tmp_path, capsys, command, source):
    out = tmp_path / "out"
    rc = main([command, *source, "--out", str(out), "--no-timestamp"])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("epiwave: ")
    assert captured.err.count("\n") == 1
    assert "--input" in captured.err and "--fixture" in captured.err
    assert not out.exists()


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


def test_data_dir_env_without_the_name_exits_2(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    data.mkdir()
    monkeypatch.setenv("EPIWAVE_DATA_DIR", str(data))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    rc = main(["waves", "--input", "absent.csv", "--out", str(out), "--quiet"])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("epiwave: ") and err.count("\n") == 1 and "absent.csv" in err
    assert not out.exists()


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m epiwave.cli`` in a fresh interpreter, so that stderr is
    what a user sees, warnings included."""
    src = str(Path(epiwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "epiwave.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_prints_usage():
    done = run_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: epiwave")


def test_fit_help_names_the_step_and_its_stability_bound(capsys):
    with pytest.raises(SystemExit) as done:
        main(["fit", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "at the RK4 step of 0.1 day" in text
    assert "step*(beta+eta+epsilon) > 2 (beta+eta+epsilon > 20)" in text


def test_bad_table_row_writes_no_table(tmp_path, capsys):
    src = tmp_path / "r0s.csv"
    src.write_text("wave,r0\na,2.5\nb,abc\n")
    out = tmp_path / "out"
    rc = main(["finalsize", "--table", str(src), "--out", str(out), "--quiet"])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err.count("\n") == 1
    assert not (out / "herd_immunity.csv").exists()


@pytest.mark.parametrize("table", [
    "wave,r0\na,2.5\nb,abc\n", None, "wave,r0\na,2.5\nb,nan\n",
    "wave,r0\na,2.5\nb,inf\n", "wave,r0\na,2.5\nb,-2\n",
], ids=["bad row", "missing", "r0 nan", "r0 inf", "r0 -2"])
def test_bad_table_leaves_no_output_of_any_part(tmp_path, capsys, table):
    src = tmp_path / "r0s.csv"
    if table is not None:
        src.write_text(table)
    out = tmp_path / "out"
    rc = main(["finalsize", "--r0", "2.5", "--curve", "1,7,3", "--table", str(src),
               "--out", str(out)])
    assert rc == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("epiwave: ")
    assert table is None or captured.err.startswith(f"epiwave: {src}:3: ")
    assert not out.exists()


TRIANGLE_FIT = ["fit", "--fixture", "triangle", "--beta-grid", "0.2,0.3,2",
                "--eta-grid", "0.1,0.2,2", "--epsilon-grid", "3,3,1"]


@pytest.mark.parametrize("argv, config, code, named", [
    # a key that no command knows
    (TRIANGLE_FIT, "wave_idx=1", EXIT_PARSE, "wave_idx"),
    # a key of another command is ignored
    (TRIANGLE_FIT, "smoothing=bogus\ntop_n=0", 0, None),
    # outside its domain: a config value exits 2, a flag exits 4
    (TRIANGLE_FIT, "metric=bogus", EXIT_PARSE, "metric"),
    (TRIANGLE_FIT + ["--metric", "bogus"], None, EXIT_USAGE, "--metric"),
    (TRIANGLE_FIT, "top_k=0", EXIT_PARSE, "top_k"),
    (TRIANGLE_FIT + ["--top-k", "0"], None, EXIT_USAGE, "--top-k"),
    (["simulate", "--days", "5"], "model=bogus", EXIT_PARSE, "model"),
    (["waves", "--fixture", "triangle", "--start-threshold", "nan"], None,
     EXIT_USAGE, "--start-threshold"),
    (["waves", "--fixture", "triangle"], "end_threshold=nan", EXIT_PARSE,
     "end_threshold"),
    (TRIANGLE_FIT + ["--epsilon-grid", "inf,inf,1"], None, EXIT_USAGE,
     "--epsilon-grid"),
    (["simulate", "--step", "nan"], None, EXIT_USAGE, "--step"),
    (["finalsize", "--r0", "nan"], None, EXIT_USAGE, "--r0"),
    # values that each hold but do not fit together
    (TRIANGLE_FIT + ["--start-threshold", "1", "--end-threshold", "2"], None,
     EXIT_INVARIANT, None),
    (["simulate", "--days", "5"], "step=0.3\nkappa_is_not_a_key=1", EXIT_PARSE,
     "kappa_is_not_a_key"),
    (["simulate", "--days", "5", "--kappa", "1"], "step=0.3", EXIT_INVARIANT, None),
    # an axis outside its domain as a whole
    (TRIANGLE_FIT + ["--beta-grid", "0.3,0.2,3"], None, EXIT_USAGE, "--beta-grid"),
    (TRIANGLE_FIT, "eta_grid=0.2,0.2,2", EXIT_PARSE, "eta_grid"),
    (["finalsize", "--curve", "-1,7,3"], None, EXIT_USAGE, "--curve"),
    (["finalsize", "--curve", "7,1,3"], None, EXIT_USAGE, "--curve"),
    (["finalsize", "--curve", "1,7,1"], None, EXIT_USAGE, "--curve"),
])
def test_exit_code_by_category(tmp_path, capsys, argv, config, code, named):
    extra = []
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        extra = ["--config", str(tmp_path / "run.cfg")]
    rc = main(argv + extra + ["--out", str(tmp_path / "o"), "--no-timestamp", "--quiet"])
    assert rc == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("epiwave: ") and err.count("\n") == 1
    if named:
        assert named in err


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate")])
def test_memory_error_exits_3(tmp_path, capsys, monkeypatch, error):
    def grid_search(*args, **kwargs):
        raise error

    monkeypatch.setattr(epiwave.calibration, "grid_search", grid_search)
    assert main(TRIANGLE_FIT + ["--out", str(tmp_path), "--quiet"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("epiwave: ") and err.count("\n") == 1
    assert len(err.strip()) > len("epiwave:")


def test_fit_with_every_cell_blown_up_exits_3(tmp_path):
    out = tmp_path / "out"
    done = run_module(*TRIANGLE_FIT, "--epsilon-grid", "100000,100000,1",
                      "--out", str(out), "--quiet")
    assert done.returncode == EXIT_INVARIANT
    assert done.stderr.startswith("epiwave: ") and done.stderr.count("\n") == 1
    assert "RuntimeWarning" not in done.stderr
    assert not (out / "fit_report.csv").exists()


FIT_REPORT_HEADER = "r0,beta,eta,epsilon,kappa,error_pct\n"
# What each CSV input (and --config) reads, and its header.
CSV_INPUTS = {
    "excess --reported": "date,value",
    "excess --history": "date,value",
    "waves --input": "date,value",
    "fit --input": "date,value",
    "forecast --prior-report": FIT_REPORT_HEADER.strip(),
    "finalsize --table": "wave,r0",
    "waves --config": "top_k=3",
}
UNREADABLE = {
    "missing": None,
    "directory": b"",
    "undecodable": b"\xff,1\n",
    "oversized field": b"x" * 200_000 + b"\n",
}


def argv_reading(slot: str, path: str, registry) -> list[str]:
    """A command line that reads ``path`` through ``slot`` and has every
    other input it needs."""
    command, flag = slot.split()
    history = [str(registry[year]) for year in (2019, 2018, 2017, 2016, 2015)]
    if flag == "--history":
        history[0] = path
    if command == "excess":
        reported = path if flag == "--reported" else str(registry["reported"])
        return ["excess", "--reported", reported] + [
            arg for h in history for arg in ("--history", h)]
    if flag == "--config":
        return [command, "--fixture", "triangle", "--config", path]
    return [command, flag, path] + (TRIANGLE_FIT[3:] if command == "fit" else [])


@pytest.mark.parametrize("kind", list(UNREADABLE))
@pytest.mark.parametrize("slot", list(CSV_INPUTS))
def test_unreadable_input_exits_2_and_writes_nothing(
        registry, tmp_path, capsys, slot, kind):
    path = tmp_path / "input.csv"
    content = UNREADABLE[kind]
    if kind == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(CSV_INPUTS[slot].encode() + b"\n" + content)
    out = tmp_path / "out"
    rc = main(argv_reading(slot, str(path), registry) + ["--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == EXIT_PARSE
    assert err.startswith("epiwave: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("row", [
    "3.0,0.3,0.1,3.0,nan,1.0", "3.0,inf,0.1,3.0,1000.0,1.0",
    "3.0,0.3,nan,3.0,1000.0,1.0", "3.0,0.3,0.1,-inf,1000.0,1.0",
    "3.0,0.3,0.1,3.0,1000.0,nan",
])
def test_non_finite_fit_report_value_exits_2_naming_the_line(tmp_path, capsys, row):
    report = tmp_path / "report.csv"
    report.write_text(FIT_REPORT_HEADER + "2.0,0.2,0.1,3.0,1000.0,5.0\n" + row + "\n")
    out = tmp_path / "out"
    rc = main(["forecast", "--prior-report", str(report), "--out", str(out), "--quiet"])
    assert rc == EXIT_PARSE
    assert f"{report}:3: non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", [
    "3.0,0.3,0.0,3.0,1000.0,1.0", "3.0,-0.2,0.1,3.0,1000.0,1.0",
    "3.0,0.3,0.1,0.0,1000.0,1.0", "3.0,0.3,0.1,3.0,-1.0,1.0",
    "3.0,0.3,0.1,3.0,1000.0,-0.5",
])
def test_out_of_range_fit_report_value_exits_2_naming_the_line(tmp_path, capsys, row):
    report = tmp_path / "report.csv"
    report.write_text(FIT_REPORT_HEADER + "2.0,0.2,0.1,3.0,1000.0,5.0\n" + row + "\n")
    out = tmp_path / "out"
    rc = main(["forecast", "--prior-report", str(report), "--out", str(out), "--quiet"])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"epiwave: {report}:3: ") and err.count("\n") == 1
    assert not out.exists()


def test_inputs_find_their_columns_by_name(tmp_path):
    table = tmp_path / "r0s.csv"
    table.write_text("R0 ,note, wave\n2.5,x,first\n")
    report = tmp_path / "report.csv"
    report.write_text("error_pct,kappa,epsilon,eta,beta\n5.0,1000.0,3.0,0.1,0.2\n")
    assert main(["finalsize", "--table", str(table), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert (tmp_path / "herd_immunity.csv").read_text().splitlines()[1].startswith(
        "first,2.5,")
    assert main(["forecast", "--prior-report", str(report), "--horizon", "30",
                 "--out", str(tmp_path), "--quiet", "--no-timestamp"]) == 0
    assert json.loads((tmp_path / "assumptions.json").read_text())["central"]["r0"] == 2.0


@pytest.mark.parametrize("text", ["", "foo\n", "wave,r0,wave\na,2.5,b\n"])
def test_table_without_one_wave_and_r0_column_exits_2(tmp_path, text):
    src = tmp_path / "r0s.csv"
    src.write_text(text)
    out = tmp_path / "out"
    rc = main(["finalsize", "--table", str(src), "--out", str(out), "--quiet"])
    assert rc == EXIT_PARSE
    assert not out.exists()


def valid_input(slot: str, registry, tmp_path) -> bytes:
    """Contents that ``slot`` accepts."""
    command, flag = slot.split()
    if command == "excess":
        return registry[2019 if flag == "--history" else "reported"].read_bytes()
    if flag == "--input":
        save_series(triangle_excess(), tmp_path / "triangle.csv")
        return (tmp_path / "triangle.csv").read_bytes()
    return {
        # beta first: a mark left in place would hide that column
        "forecast": "beta,eta,epsilon,kappa,error_pct\n0.2,0.1,3.0,1000.0,5.0\n",
        "finalsize": "wave,r0\nfirst,2.5\n",
        "waves": "min_wave_days=5\n",
    }[command].encode()


@pytest.mark.parametrize("slot", list(CSV_INPUTS))
def test_byte_order_mark_is_ignored(registry, tmp_path, capsys, slot):
    """Spreadsheets save "CSV UTF-8" with a leading byte-order mark."""
    path, out = tmp_path / "input.csv", tmp_path / "out"
    argv = argv_reading(slot, str(path), registry) + ["--out", str(out), "--no-timestamp"]
    content = valid_input(slot, registry, tmp_path)
    runs = []
    for prefix in (b"", "\ufeff".encode()):
        path.write_bytes(prefix + content)
        rc = main(argv)
        files = {p.name: p.read_bytes() for p in out.glob("*")}
        runs.append((rc, capsys.readouterr(), files))
        shutil.rmtree(out, ignore_errors=True)
    assert runs[0][0] == 0 and runs[0][2]
    assert runs[1] == runs[0]


# The artifacts of each command, all written by ``argv_writing_all``.
ARTIFACTS = {
    "excess": ("excess.csv", "excess_meta.json"),
    "waves": ("waves.json",),
    "fit": ("fit_report.csv", "beta_scan.csv", "eta_scan.csv", "fit_meta.json"),
    "forecast": ("forecast.csv", "assumptions.json"),
    "finalsize": ("final_size_curve.csv", "herd_immunity.csv"),
    "simulate": ("trajectory.csv", "deaths.csv"),
}


def argv_writing_all(command: str, registry, tmp_path) -> list[str]:
    """A command line on which ``command`` writes each of its artifacts."""
    report, table = tmp_path / "report.csv", tmp_path / "r0s.csv"
    report.write_text(FIT_REPORT_HEADER + "2.0,0.2,0.1,3.0,1000.0,5.0\n")
    table.write_text("wave,r0\nfirst,2.5\n")
    return {
        "excess": excess_args(registry),
        "waves": ["waves", "--fixture", "triangle"],
        "fit": TRIANGLE_FIT,
        "forecast": ["forecast", "--prior-report", str(report), "--horizon", "30"],
        "finalsize": ["finalsize", "--curve", "1,7,3", "--table", str(table)],
        "simulate": ["simulate", "--days", "5", "--kappa", "1"],
    }[command]


@pytest.mark.parametrize("command", list(ARTIFACTS))
def test_each_command_writes_its_artifacts(registry, tmp_path, command):
    out = tmp_path / "out"
    argv = argv_writing_all(command, registry, tmp_path)
    assert main(argv + ["--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[command])


@pytest.mark.parametrize("command, artifact",
                         [(c, a) for c, names in ARTIFACTS.items() for a in names])
def test_unwritable_artifact_exits_2_naming_it(registry, tmp_path, capsys,
                                               command, artifact):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    argv = argv_writing_all(command, registry, tmp_path)
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("epiwave: ") and err.count("\n") == 1
    assert str(out / artifact) in err and "Traceback" not in err


@pytest.mark.parametrize("command, extra, named", [
    ("simulate", ["--days", "30", "--start-date", "9999-12-20"], ""),
    ("forecast", ["--start-date", "9999-12-01", "--horizon", "120"], ""),
    ("simulate", ["--step", "5e-324", "--days", "10"], "step"),
    ("simulate", ["--step", "0.3", "--days", "10"], "step"),
    (None, ["simulate", "--step", "0.3", "--days", "10"], "step"),
    ("simulate", ["--step", "20", "--days", "10"], "step"),
    ("simulate", ["--step", "1e-300", "--days", "10"], "step"),
], ids=["simulate past 9999", "forecast past 9999", "step too small to count",
        "step 0.3", "step 0.3 without kappa", "step 20", "step 1e-300"])
def test_unrepresentable_run_exits_3_and_writes_nothing(registry, tmp_path, capsys,
                                                        command, extra, named):
    out = tmp_path / "out"
    argv = (argv_writing_all(command, registry, tmp_path) if command else []) + extra
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("epiwave: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()
