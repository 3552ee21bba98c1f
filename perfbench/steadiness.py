#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads jbb,srv,mc] [--seeds 1-10]
                                    [--seconds S]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric its median and its interquartile range
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json.  From each run's spans it also recomputes
the summed per-point run-phase seconds under two estimators, the median and
the fastest repetition of each point, and prints their spreads the same way.
Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def point_times(workload, seed):
    """Per point, every timed run-phase duration (s) from a run's spans."""
    path = os.path.join(ROOT, ".bench_build", "perfbench", "out",
                        "spans_%s_seed%d_trace0.json" % (workload, seed))
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    times = {}
    for e in events:
        parent = e["args"]["parent"]
        if e["name"] in ("run", "explore") and events[parent]["name"].startswith("timed "):
            times.setdefault(e["args"]["point"], []).append(e["dur"] / 1e6)
    return times


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                ok = False
            times = point_times(wl, seed)
            runs[wl].append({"seed": seed, "result": result,
                             "sum_median_s": sum(statistics.median(t) for t in times.values()),
                             "sum_fastest_s": sum(min(t) for t in times.values())})
            print("%s seed=%d %s" % (wl, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[wl]]
            print("  %-4s %-18s median %-12.6g spread %6.2f%%  bound %4.0f%%" % (
                wl, name, statistics.median(values), 100 * spread(values), 100 * bound),
                flush=True)
        for est in ("sum_median_s", "sum_fastest_s"):
            values = [r[est] for r in runs[wl]]
            print("  %-4s %-18s median %-12.6g spread %6.2f%%" % (
                wl, est, statistics.median(values), 100 * spread(values)), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
