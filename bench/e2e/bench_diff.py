#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs: a parent and a change.

  python3 bench/e2e/bench_diff.py --parent runs/parent --change runs/change

Each set is a list of run.json files or directories of them (run.py keeps
one per run under .bench_build/e2e/results/). For every (end-to-end
metric, workload) it prints each side's median and quartiles, the pairs
the change won (the i-th parent run against the i-th change run, in seed
order; ties count for neither) and a verdict, using the metric's bound
from BENCHMARK.json:

  improved    there are at least ten pairs, the change wins at least 9
              in 10 of them, and its median is better by more than the
              parent's own spread (q3 - q1);
  regressed   the change median is worse than the parent's by more than
              the bound;
  unresolved  the parent's spread, (q3 - q1) / median, is wider than the
              bound and not every change run is better than every parent
              run;
  unchanged   otherwise.

It also reports any rise in error_frac. It refuses to compare run sets
whose host, nproc, SIMD ISA or window length differ. Exit status: 0 when
nothing regressed and no error_frac rose, 1 otherwise, 2 on refusal.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
COMPARABLE = ("host", "nproc", "isa", "window_s")
MIN_PAIRS_FOR_GAIN = 10  # fewer pairs cannot support a claimed gain


def load_runs(paths):
    runs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            if f.name.endswith(".spans.json"):
                continue
            run = json.loads(f.read_text())
            # End-to-end numbers are compared across untraced runs only.
            if ("header" in run and "end_to_end" in run
                    and not run.get("traced")):
                run["_file"] = str(f)
                runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, pairs won, pairs, relative change of the median)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cm - pm)  # > 0: the change is better
    rel = (cm - pm) / pm if pm else 0.0
    wide = pm != 0 and (p3 - p1) / abs(pm) > bound
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    improved = (len(pairs) >= MIN_PAIRS_FOR_GAIN and won >= 0.9 * len(pairs)
                and gain > (p3 - p1))
    worse_by = -gain / abs(pm) if pm else 0.0
    if improved and (not wide or all_better):
        return "improved", won, len(pairs), rel
    if worse_by > bound and (not wide or all_worse):
        return "regressed", won, len(pairs), rel
    if wide and not all_better:
        return "unresolved", won, len(pairs), rel
    return "unchanged", won, len(pairs), rel


def error_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        print("bench_diff: both sets need at least one run.json",
              file=sys.stderr)
        return 2
    for key in COMPARABLE:
        seen = {r["header"][key] for r in parent + change}
        if len(seen) > 1:
            print("bench_diff: refusing to compare runs whose %s differ: %s"
                  % (key, sorted(map(str, seen))), file=sys.stderr)
            return 2

    def by_workload(runs):
        out = {}
        for r in sorted(runs, key=lambda r: (r["header"]["seed"], r["_file"])):
            out.setdefault(r["header"]["workload"], []).append(r)
        return out

    pw, cw = by_workload(parent), by_workload(change)
    failed = False
    print("%-13s %-19s %28s %28s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "median", "won", "verdict"))
    for workload in sorted(set(pw) | set(cw)):
        if workload not in pw or workload not in cw:
            print("%-13s missing from the %s set" % (
                workload, "parent" if workload not in pw else "change"))
            failed = True
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["end_to_end"][name]["value"] for r in pw[workload]]
            cv = [r["end_to_end"][name]["value"] for r in cw[workload]]
            v, won, pairs, rel = verdict(pv, cv, m["better"], m["bound"])
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("%-13s %-19s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
                  "%+7.1f%% %2d/%-3d  %s" % (
                      workload, name, pm, p1, p3, cm, c1, c3, 100 * rel,
                      won, pairs, v))
            failed = failed or v == "regressed"
        pe, ce = error_frac(pw[workload]), error_frac(cw[workload])
        if ce > pe:
            print("%-13s error_frac rose from %.3g to %.3g"
                  % (workload, pe, ce))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
