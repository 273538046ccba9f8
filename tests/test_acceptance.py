"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 checks the published R0 column against the table's own
definitions: each per-fit R0 is that row's beta/eta, and each averages row
carries the column means of its wave's fits, so its R0 is the mean of the
per-fit R0 values (not mean-beta/mean-eta, which differs by 8e-4 on the
first wave of 2020).

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-grid search
in criterion 4 takes about half a minute.
"""
import datetime as dt
import math
import time

import conftest

from pathlib import Path

import numpy as np

from epiwave.calibration import GridSpec, fit_error, grid_search
from epiwave.cli import main
from epiwave.epidemic import (
    SeirParams,
    integrate,
)
from epiwave.finalsize import solve_final_size
from epiwave.fixtures import synthetic_istanbul, synthetic_wave, triangle_excess
from epiwave.mortality import (
    BaselineWeights,
    expected_deaths,
    trailing_average_7,
)
from epiwave.series import DailyCountSeries
from epiwave.waves import SegmentationConfig, segment_waves
from reference_values import (
    HERD_IMMUNITY_PAIRS,
    WAVE1_2020_TOP10,
    WAVE1_2021_TOP10,
    WAVE2_2020_TOP10,
    WAVE_AVERAGES,
)


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number}: {status}{suffix}"
    print(line)
    # surfaced in the terminal summary even under output capture
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} failed{suffix}"


def fixed_point_final_size(r0, tol=1e-13, max_iter=100000):
    r = 0.5
    for _ in range(max_iter):
        nxt = 1.0 - math.exp(-r0 * r)
        if abs(nxt - r) < tol:
            return nxt
        r = nxt
    return r


def test_criterion_1_final_size_reproduction():
    started = time.time()
    failures = []
    for r0, expected in HERD_IMMUNITY_PAIRS:
        got = solve_final_size(r0).r_f
        if abs(got - expected) > 0.005:
            failures.append(f"r0={r0}: {got:.4f} vs {expected}")
    rng = np.random.default_rng(2024)
    for r0 in rng.uniform(1.0 + 1e-9, 10.0, size=20):
        got = solve_final_size(float(r0)).r_f
        oracle = fixed_point_final_size(float(r0))
        if abs(got - oracle) > 1e-8:
            failures.append(f"oracle mismatch at r0={r0:.4f}")
    elapsed = time.time() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, not failures, "; ".join(failures) or f"runtime {elapsed:.3f}s")


def test_criterion_2_r0_column_consistency():
    failures = []
    waves = (
        ("2020 wave 1 fits", WAVE1_2020_TOP10),
        ("2020 wave 2 fits", WAVE2_2020_TOP10),
        ("2021 wave 1 fits", WAVE1_2021_TOP10),
    )
    for label, rows in waves:
        for printed, beta, eta, epsilon, _ in rows:
            params = SeirParams(beta, eta, float(epsilon))
            got = params.beta / params.eta
            if abs(got - printed) > 0.005:
                failures.append(f"{label}: beta/eta={got:.4f} vs printed {printed}")
    # an averages row holds the column means of its wave's fits: its R0 is
    # the mean of the per-fit R0 values, its beta and eta (printed to nine
    # decimals) the means of the beta and eta columns
    for (_, rows), (label, printed, beta, eta) in zip(
        waves, WAVE_AVERAGES, strict=True
    ):
        got = float(np.mean([b / e for _, b, e, _, _ in rows]))
        if abs(got - printed) > 0.0005:
            failures.append(
                f"averages, {label}: mean r0={got:.5f} vs printed {printed}"
            )
        for name, column, value in (("beta", 1, beta), ("eta", 2, eta)):
            mean = float(np.mean([row[column] for row in rows]))
            if abs(mean - value) > 1e-9:
                failures.append(
                    f"averages, {label}: mean {name}={mean:.10f} vs printed {value}"
                )
    report(2, not failures, "; ".join(failures))


def test_criterion_3_conservation_and_positivity():
    params = SeirParams(beta=0.231419776, eta=0.073068182, epsilon=3.0)
    traj = integrate("seir", params, 200, 0.05)
    drift = np.abs(traj.states.sum(axis=1) - 1.0).max()
    floor = traj.states.min()
    half = integrate("seir", params, 200, 0.025)
    halving = np.abs(half.states[::2] - traj.states).max()
    ok = drift < 1e-9 and floor >= -1e-12 and halving < 1e-6
    report(
        3, ok,
        f"drift={drift:.2e}, min={floor:.2e}, halving={halving:.2e}",
    )


def test_criterion_4_calibration_oracle():
    grid = GridSpec()
    beta_values = grid.beta_values
    eta_values = grid.eta_values
    truth = SeirParams(
        beta=float(beta_values[82]),
        eta=float(eta_values[23]),
        epsilon=float(grid.epsilon_values[2]),
    )
    kappa_true = 10000.0
    wave = synthetic_wave(truth, kappa=kappa_true)

    self_error, self_kappa = fit_error(truth, wave)
    started = time.time()
    result = grid_search(wave, grid, top_k=10)
    elapsed = time.time() - started
    best = result.candidates[0]
    cell = (
        abs(best.params.beta - truth.beta) / (beta_values[1] - beta_values[0]),
        abs(best.params.eta - truth.eta) / (eta_values[1] - eta_values[0]),
        abs(best.params.epsilon - truth.epsilon)
        / (grid.epsilon_values[1] - grid.epsilon_values[0]),
    )
    failures = []
    if self_error >= 1e-9:
        failures.append(f"self-fit error {self_error:.2e}")
    if abs(self_kappa - kappa_true) > 1e-9 * kappa_true:
        failures.append(f"kappa {self_kappa}")
    if any(c > 1.0 + 1e-9 for c in cell):
        failures.append(f"best candidate {cell} cells from truth")
    if elapsed >= 300:
        failures.append(f"grid took {elapsed:.0f}s")
    report(4, not failures, "; ".join(failures) or f"{grid.n_cells} cells in {elapsed:.0f}s")


def test_criterion_5_excess_mortality_identities():
    def const_year(year, value):
        n = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
        return DailyCountSeries(
            start=dt.date(year, 1, 1), values=np.full(n, float(value))
        )

    failures = []
    hists = [
        const_year(y, v)
        for y, v in zip(range(2019, 2014, -1), (100, 200, 300, 400, 500))
    ]
    baseline = expected_deaths(
        hists, BaselineWeights(), dt.date(2020, 1, 1), dt.date(2020, 12, 31)
    )
    if not np.allclose(baseline.values, 205.0, atol=1e-12):
        failures.append("weighted baseline != 205/day")

    reported = const_year(2020, 220.0)
    from epiwave.mortality import excess_mortality

    zero = excess_mortality(reported, reported)
    if not np.allclose(zero.values, 0.0):
        failures.append("identical inputs gave nonzero excess")

    smoothed = trailing_average_7(const_year(2020, 220.0))
    if not np.allclose(smoothed.values, 220.0, atol=1e-12):
        failures.append("trailing average of constant drifted")
    report(5, not failures, "; ".join(failures))


def test_criterion_6_wave_bookkeeping():
    failures = []
    tri = triangle_excess(peak_value=100.0, half_width=20)
    cfg = SegmentationConfig(
        start_threshold=5, end_threshold=5, min_persistence_days=3, min_wave_days=21
    )
    segments = segment_waves(tri, cfg)
    if len(segments) != 1:
        failures.append(f"{len(segments)} waves on triangle")
    else:
        seg = segments[0]
        i0, i1 = tri.index_of(seg.start_date), tri.index_of(seg.end_date)
        window = tri.values[i0 : i1 + 1]
        peak = i0 + int(np.argmax(window))
        direct_rise = peak - i0
        direct_fall = i1 - peak
        direct_total = float(np.maximum(window, 0.0).sum())
        if (seg.rise_days, seg.fall_days) != (direct_rise, direct_fall):
            failures.append("rise/fall mismatch vs direct scan")
        if seg.total_deaths != direct_total:
            failures.append("death total mismatch vs direct scan")
        if seg.rise_days != seg.fall_days:
            failures.append("symmetric triangle gave asymmetric wave")

    istanbul = segment_waves(synthetic_istanbul())
    if len(istanbul) != 4:
        failures.append(f"{len(istanbul)} waves on synthetic-istanbul")
    elif any(
        a.start_date >= b.start_date for a, b in zip(istanbul, istanbul[1:])
    ):
        failures.append("waves out of order")
    report(6, not failures, "; ".join(failures))


def test_criterion_7_cli_fit_determinism(tmp_path):
    base = [
        "fit", "--fixture", "synthetic-istanbul", "--wave-index", "0",
        "--beta-grid", "0.2,0.3,8", "--eta-grid", "0.05,0.18,8",
        "--epsilon-grid", "2,4,3", "--top-k", "10",
        "--no-timestamp", "--quiet",
    ]
    for name in ("run1", "run2"):
        assert main(base + ["--out", str(tmp_path / name)]) == 0
    artifacts = ("fit_report.csv", "beta_scan.csv", "eta_scan.csv", "fit_meta.json")
    differing = [
        a
        for a in artifacts
        if (tmp_path / "run1" / a).read_bytes() != (tmp_path / "run2" / a).read_bytes()
    ]
    report(7, not differing, "; ".join(differing))


def test_criterion_8_reference_run_guide_documented():
    # real-registry outputs are not reproducible without the external data;
    # the README must carry the documented reference-run guide instead
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    ok = "Reference run with real registry data" in readme
    report(8, ok, "README reference-run section present" if ok else "section missing")
