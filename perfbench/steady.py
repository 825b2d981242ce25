#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady each metric is.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 3 --traced   # also the traced runs, for the overhead

Each run measures for BENCHMARK.json's run_seconds, on every workload
BENCHMARK.json names. For each workload and end-to-end metric it prints the
median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median. With --traced it also runs
--trace 1 on each seed and prints the traced end-to-end medians beside the
untraced ones: their difference is the tracing overhead. Run it from the
root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys

def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct: {lines[-1]}")
    traced = {}
    in_traced = False
    for line in lines[:-1]:
        if line.startswith("traced end-to-end numbers"):
            in_traced = True
        elif in_traced and line.startswith("  "):
            name, value, _unit = line.split()
            traced[name] = float(value)
        else:
            in_traced = False
    return result["metrics"], traced


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    for w in (wl["name"] for wl in bench["workloads"]):
        untraced, traced = {}, {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics, _ = run(w, seed, bench["run_seconds"], 0)
            for name, m in metrics.items():
                untraced.setdefault(name, []).append(m["value"])
            if args.traced:
                _, t = run(w, seed, bench["run_seconds"], 1)
                for name, v in t.items():
                    traced.setdefault(name, []).append(v)
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in sorted(metrics.items())), flush=True)
        print(f"\n| {w} | median | q1 | q3 | spread |" + (" traced median | overhead |" if traced else ""))
        print("|---|---|---|---|---|" + ("---|---|" if traced else ""))
        for name in sorted(untraced):
            med, q1, q3, s = spread(untraced[name])
            row = f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {s:.3f} |"
            if traced.get(name):
                tmed = statistics.median(traced[name])
                row += f" {tmed:.4g} | {(tmed - med) / med:+.3f} |"
            print(row)
        print(flush=True)


if __name__ == "__main__":
    main()
