"""epiwave benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fit-oracle --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) in this
process, single-threaded: set-up, untimed warm-up, then operations in a closed
loop for ``--seconds``, each one checked.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` untraced operations alternate with
traced ones, and it reports the per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object.
A result file with machine facts, per-operation times and output fingerprints
is written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread, as recorded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("fit-oracle", "fit-long", "pipeline")  # workloads.WORKLOADS, pre-import
SETUP_PROBES = 4  # fresh-interpreter set-ups besides this process's own


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "cpu_model": "unknown", "caches": {},
             "python": platform.python_version(), "numpy": numpy.__version__,
             "threads": 1}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        facts["caches"][f"L{level}{suffix}"] = size
    return facts


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail_percentile(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    k = len(times) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(times), "value": sorted(times)[k - 1],
            "beyond": 10, "samples": len(times)}


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter: import epiwave and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def checked_operation(workload, tracer):
    """One operation and its checks: (seconds, problems, fingerprint)."""
    t0 = time.perf_counter()
    try:
        output = workload.run(tracer)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t0, [f"raised {exc!r}"], None
    elapsed = time.perf_counter() - t0
    try:
        problems, fingerprint = workload.check(output)
    except Exception as exc:  # so does output the checks cannot read
        return elapsed, [f"check raised {exc!r}"], None
    return elapsed, problems, fingerprint


def measure(workload, tracer, budget, reference_problems, trace):
    """Closed loop: operations back to back until the next would overrun.

    With ``trace`` every second operation runs traced, so that drift in the
    host's speed touches traced and untraced operations alike.  Returns the
    untraced and the traced operation times, the failure count, the first
    fingerprint and the problems seen.
    """
    times = {False: [], True: []}
    every, failed, first_fingerprint, problems_seen = [], 0, None, []
    start = time.perf_counter()
    while (len(every) < 1 + trace
           or time.perf_counter() - start + statistics.median(every) <= budget):
        traced = trace and len(every) % 2 == 1
        workload.reset()
        gc.collect()
        if traced:
            tracer.install()
        with tracer.span("bench.op"):
            elapsed, problems, fingerprint = checked_operation(workload, tracer)
        tracer.uninstall()
        times[traced].append(elapsed)
        every.append(elapsed)
        if fingerprint is not None:
            if first_fingerprint is None:
                first_fingerprint = fingerprint
            elif fingerprint != first_fingerprint:
                problems.append("output differs from the first operation's")
        problems += reference_problems
        if problems:
            failed += 1
            problems_seen.append(problems)
    return times[False], times[True], failed, first_fingerprint, problems_seen


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epiwave" / "__init__.py").is_file():
        print(f"perfbench: no epiwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    started = time.perf_counter()
    import epiwave

    if Path(epiwave.__file__).resolve().parent != SRC / "epiwave":
        print(f"perfbench: imported epiwave from {epiwave.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    seed = args.seed % 2**64  # numpy seeds must be non-negative
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    with tracer.span("bench.setup"):
        workload = workloads.WORKLOADS[args.workload](seed, workdir)
    setup_times = [time.perf_counter() - started]
    tracer.uninstall()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0
    if not args.trace:
        setup_times += [setup_probe(args) for _ in range(SETUP_PROBES // 2)]

    workload.warm_up(tracer)
    if args.trace:
        tracer.install()
    with tracer.span("bench.check"):
        reference_problems = workload.prepare_checks()
    tracer.uninstall()

    times, traced_times, failed, fingerprint, problems = measure(
        workload, tracer, args.seconds, reference_problems, args.trace)
    if not args.trace:
        # The other half after the timed loop, so the samples span the run.
        setup_times += [setup_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if args.trace:
        values = tracing.layer_metrics(tracer.spans, len(traced_times))
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_times) / statistics.median(times) - 1.0)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "cells_per_s": workload.cells_per_op * len(times) / sum(times),
            # The mean, not the median: per-pass times on a shared host are
            # bimodal, and the median jumps between the modes from run to run.
            "pipeline_s": statistics.fmean(times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    attempted = len(times) + len(traced_times)

    units = declared_metrics(args.trace)
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    facts = machine_facts()
    tail = tail_percentile(times)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "inputs": workload.describe(),
        "op_s": times, "traced_op_s": traced_times, "setup_samples_s": setup_times,
        "op_s_median": statistics.median(times), "op_s_tail": tail, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems[:20],
        "fingerprint": fingerprint, "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"caches={facts['caches']} python={facts['python']} "
          f"numpy={facts['numpy']} threads={facts['threads']}")
    print(f"workload {args.workload} seed {args.seed}: {workload.describe()}")
    print(f"operations: {len(times)} untraced" +
          (f", {len(traced_times)} traced" if args.trace else "") +
          f"; {workload.cells_per_op} cells per operation")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"operation median = {statistics.median(times):.6g} s; tail: " + (
            f"p{tail['percentile']:.0f} = {tail['value']:.6g} s "
            f"({tail['beyond']} of {tail['samples']} samples beyond)" if tail else
            f"none ({len(times)} samples; a tail percentile needs at least 11)"))
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted})")
    for p in problems[:5]:
        print(f"problem: {'; '.join(p)}")
    print(f"result file: {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
