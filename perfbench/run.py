#!/usr/bin/env python3
"""Runs one workload of the Slacker benchmark and prints its metrics.

    python3 perfbench/run.py --workload fleet_writes --seed 1 --seconds 20 --trace 0

Run from the repository root. Every call configures and builds
perfbench_run (the library from src/ plus this directory) under
.bench_build/perfbench; only the first one compiles. Each repetition
is its own process, pinned to one CPU: it sets up the fleet, runs the
timed phase and audits the result. Repetitions continue until
--seconds of wall time have passed (at least MIN_REPS with --trace 0,
at least one untraced and one traced with --trace 1), after one
discarded warm-up repetition on a shrunken fleet.

Every repetition of a seed must report the same simulated-output
digest, traced or not. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value", "unit"}. Wall-clock
metrics are medians over the repetitions; each repetition has already
scaled its sim_per_wall_adj for host memory contention (README.md).
Progress goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_run"
WORKLOADS = ("fleet_writes", "fleet_reads", "bulk_codec")
MIN_REPS = 3
REP_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_run; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "perfbench_run"]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            log(proc.stdout)
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return BINARY.exists()


def pin_to_one_cpu():
    """Keeps a repetition on one CPU: moving between CPUs tripled the
    repetition-to-repetition spread of the simulation speed."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_rep(workload, seed, traced, quick=False):
    """One repetition in its own process; returns its parsed JSON line."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        trace_out = BUILD_DIR / f"trace-{workload}-{seed}.json"
        cmd += ["--traced", "--trace-out", str(trace_out)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S,
                          preexec_fn=pin_to_one_cpu)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output "
                           f"(exit {proc.returncode})")
    rep = json.loads(lines[-1])
    rep["exit"] = proc.returncode
    return rep


def run_reps(workload, seed, seconds, trace, quick=False):
    """Repetitions until the wall budget is spent; (untraced, traced).

    A discarded repetition on the shrunken fleet runs first, so that the
    first measured one does not pay for loading the binary.
    """
    run_rep(workload, seed, False, quick=True)
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        done = time.monotonic() - start >= seconds
        if trace:
            if done and untraced and traced:
                break
            untraced.append(run_rep(workload, seed, False, quick))
            traced.append(run_rep(workload, seed, True, quick))
        else:
            if done and len(untraced) >= MIN_REPS:
                break
            untraced.append(run_rep(workload, seed, False, quick))
    return untraced, traced


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(spec, untraced, traced, trace):
    """The result object: correctness over all reps, metric medians."""
    reps = untraced + traced
    digests = {rep["digest"] for rep in reps}
    failures = [f for rep in reps for f in rep["failures"]]
    if len(digests) != 1:
        failures.append("simulated-output digest differs between "
                        "repetitions: " + ", ".join(sorted(digests)))
    correct = not failures and all(rep["exit"] == 0 and rep["correct"]
                                   for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if not correct:
        failed = attempted

    def median_of(source, name):
        values = [rep["metrics"][name] for rep in source
                  if name in rep["metrics"]]
        return statistics.median(values) if values else None

    values = {}
    if trace:
        for metric in spec["per_layer"]:
            values[metric["name"]] = median_of(traced, metric["name"])
        traced_wall = statistics.median(r["timed_wall_s"] for r in traced)
        untraced_wall = statistics.median(r["timed_wall_s"] for r in untraced)
        values["obs.trace_overhead"] = traced_wall / untraced_wall - 1.0
        wanted = spec["per_layer"]
    else:
        for metric in spec["end_to_end"]:
            values[metric["name"]] = median_of(untraced, metric["name"])
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise RuntimeError("metrics missing from the run: " + ", ".join(missing))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for failure in failures:
        log("perfbench: check failed: " + failure)
    probe_ns = statistics.median(rep["probe_ns"] for rep in reps)
    log(f"perfbench: {len(untraced)} untraced + {len(traced)} traced "
        f"repetitions, digest {' '.join(sorted(digests))}"
        + (f", memory probe {probe_ns:.2f} ns/access" if probe_ns else ""))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken fleet, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except OSError as err:
        log(f"perfbench: cannot read BENCHMARK.json: {err}")
        return 1
    if not build():
        return 1
    try:
        untraced, traced = run_reps(args.workload, args.seed, args.seconds,
                                    args.trace, args.quick)
        result = summarize(spec, untraced, traced, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
