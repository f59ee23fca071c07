#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

This is the command BENCHMARK.json names. It configures and builds the
bench package (bench/e2e/CMakeLists.txt, Release) into .bench_build/e2e
at the root of the checkout, runs one workload, and prints as its last
line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1 (the traced pass runs after the measured
window). Everything else, including the build log and the bench's own
metric lines, goes to stderr. Each run's run.json (and spans.json when
traced) is kept under .bench_build/e2e/results/ for bench_diff.py.

  python3 bench/e2e/run.py --workload fleet_query --seed 7 --seconds 30 \
      --trace 0
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds bench_e2e (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no repository sources under %s; cannot build bench_e2e" % ROOT)
        return None
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("build step failed: " + " ".join(step))
            return None
    return BUILD / "bench_e2e"


def run_bench(binary, args, work):
    """Runs one workload; returns (exit code, parsed run.json or None)."""
    out = work / "run.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out),
           "--workdir", str(work)]
    if args.trace:
        cmd += ["--trace", str(work / "spans.json")]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
        return 1, None
    finally:
        # Also reached when a signal ends this script (see main).
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not out.is_file():
        log("bench_e2e exited %d without writing run.json" % code)
        return code or 1, None
    return code, json.loads(out.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so the bench is killed and
    # waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    binary = build()
    if binary is None:
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]

    work = BUILD / "work" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code, run = run_bench(binary, args, work)
        if run is not None:
            kept = BUILD / "results"
            kept.mkdir(exist_ok=True)
            stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
            shutil.copyfile(work / "run.json", kept / (stem + ".json"))
            if args.trace and (work / "spans.json").is_file():
                shutil.copyfile(work / "spans.json",
                                kept / (stem + ".spans.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run is None:
        return 1

    metrics = {}
    for name in names:
        got = run[section].get(name)
        if got is None:
            log("run.json lacks metric %s" % name)
            return 1
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(run["correct"]) and code == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
