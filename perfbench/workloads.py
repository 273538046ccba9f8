"""The benchmark's three workloads: seeded inputs, one operation, its checks.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.  epiwave is reached only through
its public API and always through a module attribute at call time, so the
traced run's wrappers see every call.
"""
from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import epiwave
import epiwave.cli
import epiwave.fixtures

WAVE_START = dt.date(2020, 3, 1)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _top10(candidates) -> list[list[float]]:
    return [[c.params.beta, c.params.eta, c.params.epsilon, c.kappa, c.error_pct]
            for c in candidates[:10]]


def _ranking_problems(candidates, label="") -> list[str]:
    problems = []
    errors = [c.error_pct for c in candidates]
    if errors != sorted(errors):
        problems.append(f"{label}candidates not sorted by error")
    if any(c.r0 != c.params.beta / c.params.eta for c in candidates):
        problems.append(f"{label}r0 != beta/eta")
    return problems


def fixed_point_final_size(r0: float, tol: float = 1e-13) -> float:
    """Independent oracle: iterate r <- 1 - exp(-r0 r) from r = 0.5."""
    r = 0.5
    for _ in range(100000):
        nxt = 1.0 - math.exp(-r0 * r)
        if abs(nxt - r) < tol:
            return nxt
        r = nxt
    return r


def _final_size_problems(r0: float, r_f: float, label: str) -> list[str]:
    expected = 0.0 if r0 <= 1.0 else fixed_point_final_size(r0)
    if abs(r_f - expected) > 1e-8:
        return [f"{label}: r_f {r_f!r} vs oracle {expected!r} at r0={r0!r}"]
    return []


class FitWorkload:
    """``grid_search`` on a noise-free ``synthetic_wave`` from a seeded truth cell.

    The observed wave is a fixed window of ``days`` days starting ``lead`` days
    before the model peak, and the horizon is fixed, so every seed does the
    same RK4 and scoring work and uses the same memory.  Truth cells are drawn
    in seeded order until one peaks late enough and early enough for the
    window to lie inside the horizon.
    """

    cells_per_op: int

    def __init__(self, seed: int, workdir: Path, *, grid, metric, kappa,
                 horizon, r0_range, days, lead):
        self.grid, self.metric, self.kappa, self.horizon = grid, metric, kappa, horizon
        self.cells_per_op = grid.n_cells
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        b, e, _ = np.meshgrid(grid.beta_values, grid.eta_values,
                              grid.epsilon_values, indexing="ij")
        r0 = b / e
        cells = np.argwhere((r0 >= r0_range[0]) & (r0 <= r0_range[1]))
        for i, j, k in rng.permutation(cells)[:100]:
            truth = epiwave.SeirParams(float(grid.beta_values[i]),
                                       float(grid.eta_values[j]),
                                       float(grid.epsilon_values[k]))
            # threshold 0 keeps the whole horizon, which starts at WAVE_START
            curve = epiwave.fixtures.synthetic_wave(
                truth, kappa, start_date=WAVE_START, threshold=0.0,
                horizon_days=horizon)
            first = int(np.argmax(curve.values)) - lead
            if 0 <= first and first + days <= horizon:
                day = WAVE_START + dt.timedelta(days=first)
                self.truth = truth
                self.wave = curve.window(day, day + dt.timedelta(days=days - 1))
                return
        raise RuntimeError(f"no truth cell peaks within the {horizon}-day horizon")

    def describe(self) -> dict:
        t = self.truth
        return {"metric": self.metric, "cells": self.cells_per_op,
                "horizon_days": self.horizon, "kappa": self.kappa,
                "truth": {"beta": t.beta, "eta": t.eta, "epsilon": t.epsilon,
                          "r0": t.beta / t.eta},
                "wave_days": len(self.wave)}

    def _fit(self, horizon):
        return epiwave.grid_search(self.wave, self.grid, self.metric, 10,
                                   horizon_days=horizon)

    def warm_up(self, tracer) -> None:
        # A quarter horizon allocates the same chunk shapes as a real fit.
        self._fit(self.horizon // 4)

    def reset(self) -> None:
        pass

    def prepare_checks(self) -> list[str]:
        self.truth_error, self.truth_kappa = epiwave.fit_error(
            self.truth, self.wave, self.metric, horizon_days=self.horizon)
        return []

    def run(self, tracer):
        return self._fit(self.horizon)

    def check(self, report) -> tuple[list[str], dict]:
        path = self.workdir / "fit_report.csv"
        report.to_csv(path)
        fingerprint = {"fit_report.csv": _sha256(path),
                       "top10": _top10(report.candidates)}
        problems = _ranking_problems(report.candidates)
        if len(report.candidates) != 10:
            problems.append(f"{len(report.candidates)} candidates, expected 10")
        return problems, fingerprint


class FitOracle(FitWorkload):
    """nrmse-peak; the best cell must be the truth cell, fitted exactly."""

    def __init__(self, seed, workdir):
        super().__init__(
            seed, workdir, metric="nrmse-peak", kappa=10000.0, horizon=240,
            r0_range=(1.5, 3.5), days=110, lead=45,
            grid=epiwave.GridSpec(beta_range=(0.15, 0.35, 67),
                                  eta_range=(0.05, 0.20, 60),
                                  epsilon_range=(2.0, 5.0, 7)))

    def prepare_checks(self):
        super().prepare_checks()
        problems = []
        if not self.truth_error < 1e-9:
            problems.append(f"fit_error(truth) = {self.truth_error!r}")
        if abs(self.truth_kappa - self.kappa) > 1e-9 * self.kappa:
            problems.append(f"fit_error(truth) kappa = {self.truth_kappa!r}")
        return problems

    def check(self, report):
        problems, fingerprint = super().check(report)
        best = report.candidates[0]
        if best.params != self.truth:
            problems.append(f"best cell {best.params} is not the truth {self.truth}")
        if not best.error_pct < 1e-9:
            problems.append(f"best error {best.error_pct!r} >= 1e-9")
        if abs(best.kappa - self.kappa) > 1e-9 * self.kappa:
            problems.append(f"best kappa {best.kappa!r} != {self.kappa!r}")
        return problems, fingerprint


class FitLong(FitWorkload):
    """cum-mape on a long low-R0 wave; one chunk, long horizon, late peaks."""

    def __init__(self, seed, workdir):
        super().__init__(
            seed, workdir, metric="cum-mape", kappa=20000.0, horizon=400,
            r0_range=(1.3, 2.0), days=190, lead=65,
            grid=epiwave.GridSpec(beta_range=(0.15, 0.35, 40),
                                  eta_range=(0.05, 0.20, 40),
                                  epsilon_range=(2.0, 5.0, 7)))

    def check(self, report):
        problems, fingerprint = super().check(report)
        best = report.candidates[0]
        # The batched and the single-cell scorer may round the same cell's error
        # differently in the last bits; 1e-9 is the oracle's exact-fit level.
        if not best.error_pct <= self.truth_error + 1e-9:
            problems.append(
                f"best error {best.error_pct!r} > fit_error(truth) {self.truth_error!r}")
        return problems, fingerprint


class Pipeline:
    """A seeded death registry through every ``epiwave`` CLI command in turn.

    Five prior years and three reported years of Poisson daily deaths on a
    seasonal baseline; the reported years carry the ``synthetic-istanbul``
    excess, which segments into four waves.
    """

    N_WAVES = 4
    HORIZON = 240
    GRID = ("0.2,0.3,8", "0.05,0.18,8", "2,4,3")  # the criterion-7 grid
    cells_per_op = N_WAVES * 8 * 8 * 3
    CURVE = "1.0,7.0,121"

    def __init__(self, seed: int, workdir: Path):
        registry = workdir / "registry"
        registry.mkdir(parents=True, exist_ok=True)
        self.out = workdir / "out"
        rng = np.random.default_rng(seed)
        excess = epiwave.fixtures.synthetic_istanbul()
        self.histories = []
        for year in (2019, 2018, 2017, 2016, 2015):
            path = registry / f"deaths_{year}.csv"
            self._write_registry(path, rng, dt.date(year, 1, 1), dt.date(year, 12, 31))
            self.histories.append(path)
        self.reported = registry / "deaths_2020_2022.csv"
        self._write_registry(self.reported, rng, dt.date(2020, 1, 1),
                             dt.date(2022, 12, 31), excess)

    @staticmethod
    def _write_registry(path, rng, first, last, excess=None):
        n = (last - first).days + 1
        days = [first + dt.timedelta(days=i) for i in range(n)]
        doy = np.array([d.timetuple().tm_yday for d in days], float)
        rate = 200.0 + 40.0 * np.cos(2.0 * np.pi * (doy - 15.0) / 365.25)
        if excess is not None:
            offset = (excess.start - first).days
            rate[offset:offset + len(excess)] += excess.values[: n - offset]
        counts = rng.poisson(rate)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("date,value\n")
            fh.writelines(f"{d.isoformat()},{c}\n" for d, c in zip(days, counts))

    def describe(self) -> dict:
        return {"cells": self.cells_per_op, "waves": self.N_WAVES,
                "grid": list(self.GRID), "forecast_horizon": self.HORIZON}

    def _cli(self, tracer, argv) -> int:
        with tracer.span(f"cli.{argv[0]}"):
            return epiwave.cli.main(argv + ["--no-timestamp", "--quiet"])

    def run(self, tracer) -> dict:
        out = self.out
        codes = {}
        history = [a for p in self.histories for a in ("--history", str(p))]
        codes["excess"] = self._cli(tracer, ["excess", "--reported", str(self.reported),
                                             *history, "--out", str(out)])
        excess = str(out / "excess.csv")
        codes["waves"] = self._cli(tracer, ["waves", "--input", excess, "--out", str(out)])
        beta, eta, epsilon = self.GRID
        for i in range(self.N_WAVES):
            codes[f"fit{i}"] = self._cli(tracer, [
                "fit", "--input", excess, "--wave-index", str(i),
                "--beta-grid", beta, "--eta-grid", eta, "--epsilon-grid", epsilon,
                "--top-k", "10", "--out", str(out / f"fit{i}")])
        reports = [str(out / f"fit{i}" / "fit_report.csv") for i in range(self.N_WAVES)]
        codes["forecast"] = self._cli(tracer, [
            "forecast", *[a for r in reports for a in ("--prior-report", r)],
            "--horizon", str(self.HORIZON), "--out", str(out)])
        with open(out / "herd_input.csv", "w", encoding="utf-8") as fh:
            fh.write("wave,r0\n")
            for i, report in enumerate(reports):
                with open(report, encoding="utf-8") as rf:
                    fh.write(f"wave{i},{next(csv.DictReader(rf))['r0']}\n")
        codes["finalsize"] = self._cli(tracer, [
            "finalsize", "--curve", self.CURVE, "--table", str(out / "herd_input.csv"),
            "--out", str(out)])
        central = json.loads((out / "assumptions.json").read_text())["central"]
        codes["simulate"] = self._cli(tracer, [
            "simulate", "--beta", repr(central["beta"]), "--eta", repr(central["eta"]),
            "--epsilon", repr(central["epsilon"]), "--days", str(self.HORIZON),
            "--kappa", repr(central["kappa"]), "--out", str(out)])
        return codes

    def warm_up(self, tracer) -> None:
        self.reset()
        self.run(tracer)

    def prepare_checks(self) -> list[str]:
        return []

    def reset(self) -> None:
        """Remove the previous pass's outputs so a missing file shows."""
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, codes) -> tuple[list[str], dict]:
        out = self.out
        problems = [f"{cmd} exited {code}" for cmd, code in codes.items() if code != 0]
        expected = ["excess.csv", "excess_meta.json", "waves.json", "forecast.csv",
                    "assumptions.json", "final_size_curve.csv", "herd_immunity.csv",
                    "trajectory.csv", "deaths.csv"]
        expected += [f"fit{i}/{name}" for i in range(self.N_WAVES)
                     for name in ("fit_report.csv", "beta_scan.csv", "eta_scan.csv",
                                  "fit_meta.json")]
        missing = [name for name in expected if not (out / name).is_file()]
        problems += [f"missing {name}" for name in missing]
        if missing:
            return problems, {}

        found = len(json.loads((out / "waves.json").read_text()))
        if found != self.N_WAVES:
            problems.append(f"{found} waves found, expected {self.N_WAVES}")

        rows = _read_rows(out / "forecast.csv")
        if len(rows) != self.HORIZON:
            problems.append(f"forecast has {len(rows)} days, expected {self.HORIZON}")
        bad = [r["date"] for r in rows
               if not float(r["lower"]) <= float(r["central"]) <= float(r["upper"])]
        if bad:
            problems.append(f"forecast band out of order on {len(bad)} day(s)")

        curve = _read_rows(out / "final_size_curve.csv")
        if len(curve) != 121:
            problems.append(f"final-size curve has {len(curve)} points, expected 121")
        for r in curve:
            problems += _final_size_problems(float(r["r0"]), float(r["r_f"]), "curve")
        for r in _read_rows(out / "herd_immunity.csv"):
            problems += _final_size_problems(float(r["r0"]), float(r["r_f"]), r["wave"])

        fingerprint = {}
        for i in range(self.N_WAVES):
            path = out / f"fit{i}" / "fit_report.csv"
            report = _read_rows(path)
            candidates = [epiwave.FitCandidate(
                params=epiwave.SeirParams(float(r["beta"]), float(r["eta"]),
                                          float(r["epsilon"])),
                kappa=float(r["kappa"]), r0=float(r["r0"]),
                error_pct=float(r["error_pct"])) for r in report]
            problems += _ranking_problems(candidates, f"wave {i}: ")
            fingerprint[f"fit{i}/fit_report.csv"] = _sha256(path)
            fingerprint[f"fit{i}/top10"] = _top10(candidates)
        return problems, fingerprint


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {"fit-oracle": FitOracle, "fit-long": FitLong, "pipeline": Pipeline}
