#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steady.py --runs 10 --seconds 55 [--workloads fig2,exhaust,serve]
        [--first-seed 1] [--out spread.json]

Runs perfbench/run.py (untraced) once per seed, seeds first-seed ..
first-seed+runs-1, on each workload, and prints for every end-to-end
metric its median, first and third quartile (statistics.quantiles, n=4)
and the quartile distance as a share of the median. Run from the
checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--workloads", default="fig2,serve")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    a = ap.parse_args()
    report = {}
    for w in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", "0"],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            wall = time.monotonic() - t0
            result = json.loads(out.strip().split("\n")[-1])
            print(f"{w} seed {seed}: {wall:.1f} s wall", file=sys.stderr,
                  flush=True)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[w] = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            report[w][name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": vs}
            print(f"{w:8} {name:16} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {100 * spread:5.1f}%", flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
