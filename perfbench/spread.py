#!/usr/bin/env python3
"""Spread of every metric over repeated benchmark runs.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload train,serve,flow --seeds 1-10 \
        [--trace 0|1]

Runs perfbench/run.py once per seed and workload, one run at a time, with
the workloads interleaved (seed 1 of each, then seed 2 of each, ...) so
that every workload sees the same drift of the host. Prints for each
workload and metric its median, its quartiles and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. Exits 1 if any run fails or reports
correct: false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def steal_seconds():
    """Host CPU time stolen from this VM so far (0 where not reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one workload or a comma-separated list")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload.split(",")
    values = {w: {} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            steal0 = steal_seconds()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            steal = steal_seconds() - steal0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed with exit code "
                      f"{proc.returncode}")
                sys.exit(1)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} steal={steal:.1f}s " +
                  " ".join(f"{name}={m['value']:.4g}" for name, m in
                           list(result["metrics"].items())[:8]),
                  flush=True)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])

    for workload in workloads:
        print(f"\n{workload:10s} {'metric':30s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{workload:10s} {name:30s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")

if __name__ == "__main__":
    main()
