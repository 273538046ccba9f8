"""Command-line pipeline: ingest -> smooth -> baseline -> excess -> segment
-> fit -> forecast -> final size.

Subcommands write plot-ready CSV/JSON artifacts into the output directory
and return their summary line, which ``main`` prints.  Exit codes: 0 success,
2 input, config or output error, 3 inconsistent values, 4 usage.
"""
from __future__ import annotations

import argparse
import datetime as dt
import inspect
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import calibration, finalsize, fixtures, forecast, mortality, waves
from .calibration import GridSpec
from .epidemic import (
    DEFAULT_SEED,
    DEFAULT_STEP,
    RK4_STABILITY_BOUND,
    IntegrationError,
    SeirParams,
    daily_deaths,
    integrate,
)
from .series import (
    DailyCountSeries,
    SeriesError,
    load_excess,
    load_series,
    read_csv,
    reading,
    save_series,
    write_csv,
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


# Numeric domains of a setting; a value holds when each of its numbers does.
FINITE, POSITIVE, NONNEGATIVE, COUNT = "finite", "> 0", ">= 0", ">= 1"
UNIT, HORIZON = "in [0, 1]", f">= {forecast.MIN_HORIZON_DAYS}"
_HOLDS = {FINITE: math.isfinite, POSITIVE: lambda x: 0 < x < math.inf,
          NONNEGATIVE: lambda x: 0 <= x < math.inf, COUNT: lambda x: x >= 1,
          UNIT: lambda x: 0 <= x <= 1,
          HORIZON: lambda x: x >= forecast.MIN_HORIZON_DAYS}
# Domains of a (min, max, steps) axis, which hold for the axis as a whole.
GRID_AXIS, CURVE_AXIS = "> 0, min < max if steps > 1", ">= 0, min < max, steps >= 2"
_AXIS_HOLDS = {
    GRID_AXIS: lambda lo, hi, steps: (0 < lo < math.inf and 0 < hi < math.inf
                                      and steps >= 1 and (lo < hi or steps == 1)),
    CURVE_AXIS: lambda lo, hi, steps: 0 <= lo < hi < math.inf and steps >= 2,
}


@dataclass(frozen=True)
class Setting:
    """One setting of a command: ``flag`` on the command line and ``key`` in a
    ``--config`` file (None: flag only), parsed from text by ``parse``, with
    values in ``domain`` (a numeric domain, a tuple of choices or None for
    any) and ``default`` when neither gives one."""

    flag: str
    key: str | None
    parse: Callable[[str], Any] = str
    domain: Any = None
    default: Any = None
    required: bool = False
    repeat: bool = False

    @property
    def dest(self) -> str:
        return self.key or self.flag[2:].replace("-", "_")

    @property
    def domain_text(self) -> str | None:
        if isinstance(self.domain, tuple):
            return "one of " + ", ".join(self.domain)
        return self.domain

    @property
    def help(self) -> str:
        about = [self.key and f"config key {self.key}", self.domain_text,
                 self.default is not None and f"default {self.default}"]
        return "; ".join(filter(None, about))

    def convert(self, text: str):
        """The value of ``text``; ValueError if it does not parse or hold."""
        value = self.parse(text)
        if isinstance(self.domain, tuple):
            holds = value in self.domain
        elif self.domain in _AXIS_HOLDS:
            holds = _AXIS_HOLDS[self.domain](*value)
        else:
            numbers = value if isinstance(value, (tuple, list)) else (value,)
            holds = self.domain is None or all(_HOLDS[self.domain](x) for x in numbers)
        if not holds:
            raise ValueError(f"must be {self.domain_text}")
        return value

    def flag_type(self, text: str):
        try:
            return self.convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def _resolve(path: str) -> Path:
    """Resolve an input path, falling back to $EPIWAVE_DATA_DIR for bare names."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root and (Path(root) / p).exists():
        return Path(root) / p
    return p


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    with reading(_resolve(path)) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SeriesError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise SeriesError(f"{path}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def _apply_config(args, config: dict[str, str], settings) -> None:
    """Set each setting on ``args``: its flag wins over ``config``, which wins
    over its default.  Every key of ``config`` must belong to some command,
    and each one of this command must hold (exit 2 otherwise)."""
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise SeriesError(f"config: unknown key {unknown[0]!r}")
    for s in settings:
        value = getattr(args, s.dest)
        if s.key in config:
            try:
                configured = s.convert(config[s.key])
            except ValueError as exc:
                raise SeriesError(f"config {s.key}={config[s.key]!r}: {exc}") from exc
            value = configured if value is None else value
        setattr(args, s.dest, s.default if value is None else value)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected 'min,max,steps'")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _out_dir(args) -> Path:
    """The output directory, created if it is missing."""
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(args, out: Path, name: str, payload: dict) -> None:
    meta = dict(payload)
    if not args.no_timestamp:
        meta["generated_at"] = dt.datetime.now(dt.timezone.utc).isoformat()
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _segments(args):
    """The input excess series and its waves under the segmentation settings."""
    if (args.input is None) == (args.fixture is None):
        raise UsageError("give exactly one of --input and --fixture")
    excess = (load_excess(_resolve(args.input)) if args.fixture is None
              else fixtures.FIXTURES[args.fixture]())
    config = waves.SegmentationConfig(
        **{s.key: getattr(args, s.key) for s in _SEGMENTATION}
    )
    return excess, waves.segment_waves(excess, config)


def cmd_excess(args) -> str:
    reported = load_series(_resolve(args.reported))
    histories = [load_series(_resolve(p)) for p in args.history]
    weights = mortality.BaselineWeights(tuple(args.weights))
    expected = mortality.expected_deaths(histories, weights,
                                         reported.start, reported.end)
    if args.smoothing == "pre":
        reported = mortality.trailing_average_7(reported)
        expected = mortality.trailing_average_7(expected)
    excess = mortality.excess_mortality(reported, expected)
    if args.smoothing == "post":
        excess = mortality.trailing_average_7(excess)

    out = _out_dir(args)
    save_series(excess, out / "excess.csv")
    total = float(np.sum(excess.values))
    _write_meta(args, out, "excess_meta.json", {"total_excess": total})
    return f"total_excess={total:.6g}"


def cmd_waves(args) -> str:
    _, segments = _segments(args)
    out = _out_dir(args)
    with open(out / "waves.json", "w", encoding="utf-8") as fh:
        json.dump([s.to_dict() for s in segments], fh, indent=2)
        fh.write("\n")
    return f"waves={len(segments)}"


def cmd_fit(args) -> str:
    excess, segments = _segments(args)
    index = args.wave_index
    if index < 0 or index >= len(segments):
        raise UsageError(
            f"wave index {index} out of range ({len(segments)} wave(s) found)"
        )
    seg = segments[index]
    piece = excess.window(seg.start_date, seg.end_date)
    observed = DailyCountSeries(start=piece.start, values=np.maximum(piece.values, 0.0))
    grid = GridSpec(args.beta_grid, args.eta_grid, args.epsilon_grid)
    report = calibration.grid_search(observed, grid, args.metric, args.top_k)
    out = _out_dir(args)
    report.to_csv(out / "fit_report.csv")
    scan_header = ("param_value", "min_error_pct")
    write_csv(out / "beta_scan.csv", scan_header, report.beta_scan)
    write_csv(out / "eta_scan.csv", scan_header, report.eta_scan)
    _write_meta(
        args,
        out,
        "fit_meta.json",
        {"metric": args.metric, "cells": grid.n_cells, "top_k": args.top_k},
    )
    best = report.candidates[0]
    return (f"best r0={best.r0:.3f} beta={best.params.beta:.6g} "
            f"eta={best.params.eta:.6g} epsilon={best.params.epsilon:.6g} "
            f"error_pct={best.error_pct:.6g}")


def cmd_forecast(args) -> str:
    priors = []
    for path in map(_resolve, args.prior_report):
        candidates = calibration.read_fit_report(path)
        # A report ranks blown-up cells (infinite error) last; none is averaged.
        n = min(args.top_n, sum(c.error_pct < math.inf for c in candidates))
        if n == 0:
            raise SeriesError(f"{path}: no row with a finite error_pct")
        priors.append(calibration.average_top_candidates(candidates, n))
    band = forecast.predict_wave(priors, args.start_date, args.horizon)
    out = _out_dir(args)
    rows = zip(band.central.dates(), band.lower.values.tolist(),
               band.central.values.tolist(), band.upper.values.tolist())
    write_csv(out / "forecast.csv", ("date", "lower", "central", "upper"), rows)
    _write_meta(args, out, "assumptions.json", band.assumptions)
    return f"central_r0={band.assumptions['central']['r0']:.3f}"


def cmd_finalsize(args) -> str | None:
    if args.r0 is None and args.curve is None and args.table is None:
        raise UsageError("finalsize needs --r0, --curve or --table")
    # Every requested part is read and solved before anything is written, so
    # a bad table leaves no partial output behind.
    table = None
    if args.table is not None:
        def solve(label, r0):
            if "\r" in label:  # csv.writer leaves a lone \r unquoted before 3.13
                raise ValueError(f"carriage return in wave label {label!r}")
            return label, r0, finalsize.solve_final_size(r0)

        table = read_csv(_resolve(args.table), {"wave": str, "r0": float}, solve)
    curve = None if args.curve is None else finalsize.final_size_curve(*args.curve)
    r_f = None if args.r0 is None else finalsize.solve_final_size(args.r0)
    if curve is not None:
        write_csv(_out_dir(args) / "final_size_curve.csv", ("r0", "r_f"), curve)
    if table is not None:
        write_csv(_out_dir(args) / "herd_immunity.csv", ("wave", "r0", "r_f"), table)
    return None if r_f is None else f"{r_f:.3f}"


def cmd_simulate(args) -> str:
    params = SeirParams(args.beta, args.eta, args.epsilon)
    traj = integrate(args.model, params, args.days, args.step, args.seed_fraction)
    deaths = None
    if args.kappa is not None:
        deaths = DailyCountSeries(args.start_date, daily_deaths(traj, args.kappa))
    out = _out_dir(args)
    traj.to_csv(out / "trajectory.csv")
    if deaths is not None:
        save_series(deaths, out / "deaths.csv")
    return f"samples={len(traj)}"


_SOURCE = (Setting("--input", None),
           Setting("--fixture", None, str, tuple(fixtures.FIXTURES)))
_SEG = waves.SegmentationConfig  # its field defaults
_SEGMENTATION = (
    Setting("--start-threshold", "start_threshold", float, NONNEGATIVE,
            _SEG.start_threshold),
    Setting("--end-threshold", "end_threshold", float, NONNEGATIVE, _SEG.end_threshold),
    Setting("--min-persistence", "min_persistence_days", int, COUNT,
            _SEG.min_persistence_days),
    Setting("--min-wave-days", "min_wave_days", int, COUNT, _SEG.min_wave_days),
)
_FIT_DEFAULTS = inspect.signature(calibration.grid_search).parameters
# Text after a command's flags in its --help.
_EPILOGS = {"fit": (
    f"Every cell is integrated at the RK4 step of {DEFAULT_STEP:g} day and stops "
    "once its peak-aligned window is covered; a cell too fast for that step, "
    f"step*(beta+eta+epsilon) > {RK4_STABILITY_BOUND:g} "
    f"(beta+eta+epsilon > {RK4_STABILITY_BOUND / DEFAULT_STEP:g}), "
    "never stops early and runs the whole horizon.")}
_DATE = dt.date.fromisoformat

# name: (help, function, settings); the library supplies every default it has.
COMMANDS = {
    "excess": ("build excess-mortality series", cmd_excess, (
        Setting("--reported", None, required=True),
        Setting("--history", None, required=True, repeat=True),
        Setting("--weights", "weights", _parse_floats, UNIT,
                list(mortality.DEFAULT_WEIGHTS)),
        Setting("--smoothing", "smoothing", str, ("pre", "post", "none"), "pre"),
    )),
    "waves": ("segment an excess series into waves", cmd_waves,
              _SOURCE + _SEGMENTATION),
    "fit": ("grid-search SEIR parameters for one wave", cmd_fit, _SOURCE + (
        Setting("--wave-index", "wave_index", int, None, 0),
        Setting("--beta-grid", "beta_grid", _parse_axis, GRID_AXIS,
                GridSpec.beta_range),
        Setting("--eta-grid", "eta_grid", _parse_axis, GRID_AXIS, GridSpec.eta_range),
        Setting("--epsilon-grid", "epsilon_grid", _parse_axis, GRID_AXIS,
                GridSpec.epsilon_range),
        Setting("--metric", "metric", str, calibration.METRICS,
                _FIT_DEFAULTS["metric"].default),
        Setting("--top-k", "top_k", int, COUNT, _FIT_DEFAULTS["top_k"].default),
    ) + _SEGMENTATION),
    "forecast": ("predict the next wave with bounds", cmd_forecast, (
        Setting("--prior-report", None, required=True, repeat=True),
        Setting("--top-n", "top_n", int, COUNT, 10),
        Setting("--start-date", "start_date", _DATE, None, dt.date(2021, 11, 1)),
        Setting("--horizon", "horizon", int, HORIZON, 120),
    )),
    "finalsize": ("solve the final-size equation", cmd_finalsize, (
        Setting("--r0", None, float, NONNEGATIVE),
        Setting("--curve", None, _parse_axis, CURVE_AXIS),
        Setting("--table", None),
    )),
    "simulate": ("integrate SIR/SEIR and export CSV", cmd_simulate, (
        Setting("--model", "model", str, ("sir", "seir"), "seir"),
        Setting("--beta", "beta", float, POSITIVE, 0.23),
        Setting("--eta", "eta", float, POSITIVE, 0.14),
        Setting("--epsilon", "epsilon", float, POSITIVE, 3.0),
        Setting("--days", "days", int, COUNT, 200),
        Setting("--step", "step", float, POSITIVE, DEFAULT_STEP),
        Setting("--seed-fraction", "seed_fraction", float, FINITE, DEFAULT_SEED),
        Setting("--kappa", None, float, NONNEGATIVE),
        Setting("--start-date", "start_date", _DATE, None, dt.date(2020, 3, 1)),
    )),
}
CONFIG_KEYS = frozenset(s.key for _, _, ss in COMMANDS.values() for s in ss if s.key)
_VALUE_FLAGS = frozenset(
    {s.flag for _, _, ss in COMMANDS.values() for s in ss} | {"--config", "--out"}
)


def build_parser() -> _Parser:
    parser = _Parser(prog="epiwave", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, settings) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=_EPILOGS.get(name),
                           allow_abbrev=False)
        for s in settings:
            p.add_argument(
                s.flag, dest=s.dest, type=s.flag_type, required=s.required,
                action="append" if s.repeat else "store", help=s.help or None,
            )
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps from JSON metadata")
        p.set_defaults(func=func)
    return parser


def _join_values(argv) -> list[str]:
    """``--flag VALUE`` as ``--flag=VALUE`` for each flag that takes a value.

    argparse reads a separate value that starts with '-' as a flag unless it
    looks like a plain negative number, so ``--curve -1,7,3`` would fail
    where ``--curve=-1,7,3`` reaches the value's own check."""
    joined, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in _VALUE_FLAGS else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def main(argv=None) -> int:
    """Run one command and print its summary line unless ``--quiet``; every
    error exits with the code of its category, an unwritable output as 2."""
    try:
        args = build_parser().parse_args(
            _join_values(sys.argv[1:] if argv is None else argv))
        _apply_config(args, _load_config(args.config), COMMANDS[args.command][2])
        summary = args.func(args)
        if summary is not None and not args.quiet:
            print(summary)
        return EXIT_OK
    except UsageError as exc:
        error, code = exc, EXIT_USAGE
    except (SeriesError, OSError) as exc:
        error, code = exc, EXIT_PARSE
    except (ValueError, OverflowError, IntegrationError, MemoryError) as exc:
        error, code = exc, EXIT_INVARIANT
    print(f"epiwave: {str(error) or type(error).__name__}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
