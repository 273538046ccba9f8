"""Command-line pipeline: ingest -> smooth -> baseline -> excess -> segment
-> fit -> forecast -> final size.

Subcommands write plot-ready CSV/JSON artifacts into the output directory.
Exit codes: 0 success, 2 input parse error, 3 invariant violation, 4 usage.
"""
from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import calibration, finalsize, fixtures, forecast, mortality, waves
from .calibration import FitCandidate, FitReport, GridSpec
from .epidemic import (
    DEFAULT_SEED,
    DEFAULT_STEP,
    IntegrationError,
    SeirParams,
    daily_deaths,
    initial_state,
    integrate,
)
from .series import (
    DailyCountSeries,
    SeriesError,
    load_excess,
    load_series,
    save_series,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 4

DATA_DIR_ENV = "EPIWAVE_DATA_DIR"


class UsageError(Exception):
    """Bad flags, indices or fixture names; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve(path: str) -> Path:
    """Resolve an input path, falling back to $EPIWAVE_DATA_DIR for bare names."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root and (Path(root) / p).exists():
        return Path(root) / p
    return p


def _open_input(path, label: str):
    """Open a text input for reading; a missing or unreadable file is exit 2."""
    try:
        return open(_resolve(path), newline="", encoding="utf-8")
    except OSError as exc:
        raise SeriesError(f"cannot read {label} {path}: {exc}") from exc


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    with _open_input(path, "config") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SeriesError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _setting(args, config, name, conv, default):
    """Flag wins over config file, which wins over the built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return conv(config[name])
    return default


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_grid_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"grid axis must be 'min,max,steps', got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid axis {text!r}") from exc


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise UsageError(f"bad date {text!r}") from exc


def _out_dir(args) -> Path:
    """Create the output directory; a path that cannot be one is exit 2."""
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SeriesError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_meta(args, out: Path, name: str, payload: dict) -> None:
    meta = dict(payload)
    if not args.no_timestamp:
        meta["generated_at"] = dt.datetime.now(dt.timezone.utc).isoformat()
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_input_excess(args):
    if getattr(args, "fixture", None):
        return fixtures.get_fixture(args.fixture)
    if not args.input:
        raise UsageError("either --input or --fixture is required")
    return load_excess(_resolve(args.input))


def _segmentation_config(args, config) -> waves.SegmentationConfig:
    return waves.SegmentationConfig(
        start_threshold=_setting(args, config, "start_threshold", float, 10.0),
        end_threshold=_setting(args, config, "end_threshold", float, 10.0),
        min_persistence_days=_setting(args, config, "min_persistence_days", int, 3),
        min_wave_days=_setting(args, config, "min_wave_days", int, 21),
    )


def cmd_excess(args, config) -> int:
    reported = load_series(_resolve(args.reported))
    histories = [load_series(_resolve(p)) for p in args.history]
    weight_values = _parse_floats(
        _setting(args, config, "weights", str, "0.4,0.3,0.2,0.05,0.05")
    )
    if len(weight_values) != len(histories):
        raise ValueError(
            f"{len(weight_values)} weights for {len(histories)} histories"
        )
    weights = mortality.BaselineWeights.from_weights(weight_values)

    expected_parts = [
        mortality.expected_deaths(histories, weights, year)
        for year in range(reported.start.year, reported.end.year + 1)
    ]
    expected = DailyCountSeries(
        start=expected_parts[0].start,
        values=np.concatenate([p.values for p in expected_parts]),
    )
    smoothing = _setting(args, config, "smoothing", str, "pre")
    if smoothing == "pre":
        excess = mortality.excess_mortality(
            mortality.trailing_average_7(reported),
            mortality.trailing_average_7(expected),
        )
    elif smoothing == "post":
        excess = mortality.trailing_average_7(
            mortality.excess_mortality(reported, expected)
        )
    elif smoothing == "none":
        excess = mortality.excess_mortality(reported, expected)
    else:
        raise UsageError(f"unknown smoothing {smoothing!r} (pre, post or none)")

    out = _out_dir(args)
    save_series(excess, out / "excess.csv")
    total = float(np.sum(excess.values))
    _write_meta(args, out, "excess_meta.json", {"total_excess": total})
    _say(args, f"total_excess={total:.6g}")
    return EXIT_OK


def cmd_waves(args, config) -> int:
    excess = _load_input_excess(args)
    segments = waves.segment_waves(excess, _segmentation_config(args, config))
    out = _out_dir(args)
    with open(out / "waves.json", "w", encoding="utf-8") as fh:
        json.dump([s.to_dict() for s in segments], fh, indent=2)
        fh.write("\n")
    _say(args, f"waves={len(segments)}")
    return EXIT_OK


def _wave_observed(args, config) -> DailyCountSeries:
    excess = _load_input_excess(args)
    segments = waves.segment_waves(excess, _segmentation_config(args, config))
    index = _setting(args, config, "wave_index", int, 0)
    if index < 0 or index >= len(segments):
        raise UsageError(
            f"wave index {index} out of range ({len(segments)} wave(s) found)"
        )
    seg = segments[index]
    piece = excess.window(seg.start_date, seg.end_date)
    return DailyCountSeries(
        start=piece.start, values=np.maximum(piece.values, 0.0)
    )


def cmd_fit(args, config) -> int:
    observed = _wave_observed(args, config)
    grid = GridSpec(
        beta_range=_setting(args, config, "beta_grid", _parse_grid_axis, (0.15, 0.35, 200)),
        eta_range=_setting(args, config, "eta_grid", _parse_grid_axis, (0.05, 0.20, 150)),
        epsilon_range=_setting(
            args, config, "epsilon_grid", _parse_grid_axis, (2.0, 5.0, 7)
        ),
    )
    metric = _setting(args, config, "metric", str, "nrmse-peak")
    top_k = _setting(args, config, "top_k", int, 10)
    report = calibration.grid_search(observed, grid, metric, top_k)
    out = _out_dir(args)
    report.to_csv(out / "fit_report.csv")
    FitReport.scan_to_csv(report.beta_scan, out / "beta_scan.csv")
    FitReport.scan_to_csv(report.eta_scan, out / "eta_scan.csv")
    _write_meta(
        args,
        out,
        "fit_meta.json",
        {"metric": metric, "cells": grid.n_cells, "top_k": top_k},
    )
    best = report.candidates[0]
    _say(
        args,
        f"best r0={best.r0:.3f} beta={best.params.beta:.6g} "
        f"eta={best.params.eta:.6g} epsilon={best.params.epsilon:.6g} "
        f"error_pct={best.error_pct:.6g}",
    )
    return EXIT_OK


def _read_fit_report(path) -> list[FitCandidate]:
    candidates = []
    with _open_input(path, "fit report") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                beta = float(row["beta"])
                eta = float(row["eta"])
                epsilon = float(row["epsilon"])
                kappa = float(row["kappa"])
                error = float(row["error_pct"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SeriesError(f"{path}: malformed fit report row") from exc
            candidates.append(
                FitCandidate(
                    params=SeirParams(beta, eta, epsilon),
                    kappa=kappa,
                    r0=beta / eta,
                    error_pct=error,
                )
            )
    if not candidates:
        raise SeriesError(f"{path}: empty fit report")
    return candidates


def cmd_forecast(args, config) -> int:
    top_n = _setting(args, config, "top_n", int, 10)
    priors = []
    for path in args.prior_report:
        candidates = _read_fit_report(path)
        n = min(top_n, len(candidates))
        priors.append(calibration.average_top_candidates(candidates, n))
    start_date = _parse_date(_setting(args, config, "start_date", str, "2021-11-01"))
    horizon = _setting(args, config, "horizon", int, 120)
    band = forecast.predict_wave(priors, start_date, horizon)
    out = _out_dir(args)
    with open(out / "forecast.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("date,lower,central,upper\n")
        for day, lo, mid, hi in zip(
            band.central.dates(), band.lower.values, band.central.values,
            band.upper.values,
        ):
            fh.write(
                f"{day.isoformat()},{float(lo)!r},{float(mid)!r},{float(hi)!r}\n"
            )
    _write_meta(args, out, "assumptions.json", band.assumptions)
    _say(args, f"central_r0={band.assumptions['central']['r0']:.3f}")
    return EXIT_OK


def cmd_finalsize(args, config) -> int:
    out = None
    did_something = False
    if args.r0 is not None:
        result = finalsize.solve_final_size(args.r0)
        _say(args, f"{result.r_f:.3f}")
        did_something = True
    if args.curve is not None:
        lo, hi, points = _parse_grid_axis(args.curve)
        results = finalsize.final_size_curve(lo, hi, points)
        out = _out_dir(args)
        with open(out / "final_size_curve.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("r0,r_f\n")
            for r in results:
                fh.write(f"{r.r0!r},{r.r_f!r}\n")
        did_something = True
    if args.table is not None:
        out = _out_dir(args)
        with _open_input(args.table, "table") as fh:
            rows = [r for r in csv.DictReader(fh)]
        with open(out / "herd_immunity.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("wave,r0,r_f\n")
            for row in rows:
                try:
                    label, r0 = row["wave"], float(row["r0"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise SeriesError(f"{args.table}: expected wave,r0 rows") from exc
                fh.write(f"{label},{r0!r},{finalsize.solve_final_size(r0).r_f!r}\n")
        did_something = True
    if not did_something:
        raise UsageError("finalsize needs --r0, --curve or --table")
    return EXIT_OK


def cmd_simulate(args, config) -> int:
    params = SeirParams(
        beta=_setting(args, config, "beta", float, 0.23),
        eta=_setting(args, config, "eta", float, 0.14),
        epsilon=_setting(args, config, "epsilon", float, 3.0),
    )
    model = _setting(args, config, "model", str, "seir")
    step = _setting(args, config, "step", float, DEFAULT_STEP)
    seed = _setting(args, config, "seed_fraction", float, DEFAULT_SEED)
    days = _setting(args, config, "days", int, 200)
    traj = integrate(model, initial_state(model, seed), params, days, step)
    deaths = None
    if args.kappa is not None:
        start_date = _parse_date(
            _setting(args, config, "start_date", str, "2020-03-01")
        )
        deaths = daily_deaths(traj, args.kappa, start_date=start_date)
    out = _out_dir(args)
    traj.to_csv(out / "trajectory.csv")
    if deaths is not None:
        save_series(deaths, out / "deaths.csv")
    _say(args, f"samples={len(traj)}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags win")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="omit timestamps from JSON metadata"
    )


def _add_segmentation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start-threshold", type=float, dest="start_threshold")
    parser.add_argument("--end-threshold", type=float, dest="end_threshold")
    parser.add_argument(
        "--min-persistence", type=int, dest="min_persistence_days"
    )
    parser.add_argument("--min-wave-days", type=int, dest="min_wave_days")


def build_parser() -> _Parser:
    parser = _Parser(prog="epiwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("excess", help="build excess-mortality series")
    p.add_argument("--reported", required=True)
    p.add_argument("--history", action="append", default=[], required=True)
    p.add_argument("--weights")
    p.add_argument("--smoothing", choices=["pre", "post", "none"])
    _add_common(p)
    p.set_defaults(func=cmd_excess)

    p = sub.add_parser("waves", help="segment an excess series into waves")
    p.add_argument("--input")
    p.add_argument("--fixture", choices=list(fixtures.FIXTURES))
    _add_segmentation(p)
    _add_common(p)
    p.set_defaults(func=cmd_waves)

    p = sub.add_parser("fit", help="grid-search SEIR parameters for one wave")
    p.add_argument("--input")
    p.add_argument("--fixture", choices=list(fixtures.FIXTURES))
    p.add_argument("--wave-index", type=int, dest="wave_index")
    p.add_argument("--beta-grid", type=_parse_grid_axis, dest="beta_grid")
    p.add_argument("--eta-grid", type=_parse_grid_axis, dest="eta_grid")
    p.add_argument("--epsilon-grid", type=_parse_grid_axis, dest="epsilon_grid")
    p.add_argument("--metric", choices=list(calibration.METRICS))
    p.add_argument("--top-k", type=int, dest="top_k")
    _add_segmentation(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="predict the next wave with bounds")
    p.add_argument(
        "--prior-report", action="append", default=[], required=True,
        help="fit report CSV; repeat for several prior waves",
    )
    p.add_argument("--top-n", type=int, dest="top_n")
    p.add_argument("--start-date", dest="start_date")
    p.add_argument("--horizon", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("finalsize", help="solve the final-size equation")
    p.add_argument("--r0", type=float)
    p.add_argument("--curve", help="'r0_min,r0_max,points' sweep")
    p.add_argument("--table", help="CSV of wave,r0 pairs")
    _add_common(p)
    p.set_defaults(func=cmd_finalsize)

    p = sub.add_parser("simulate", help="integrate SIR/SEIR and export CSV")
    p.add_argument("--model", choices=["sir", "seir"])
    p.add_argument("--beta", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--days", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--seed-fraction", type=float, dest="seed_fraction")
    p.add_argument("--kappa", type=float)
    p.add_argument("--start-date", dest="start_date")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"epiwave: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SeriesError as exc:
        print(f"epiwave: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, IntegrationError) as exc:
        print(f"epiwave: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
