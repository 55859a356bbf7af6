#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload fig2|exhaust|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/bench.exe with
dune, launches it on the workload (a single process on a single
domain), and prints the workload's report, ending in one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
setup_s is measured here: the median time from launching bench.exe
until it prints "ready", over launches before and after the run. Exits non-zero,
without a JSON line, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("fig2", "exhaust", "serve")
# Set-up-only launches on each side of the run; the host's speed drifts
# over a run, so set-up is sampled at both ends of it.
SETUP_LAUNCHES = 20
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail(f"cannot run dune: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def launch(args):
    """Start bench.exe; return the process and its launch-to-ready time."""
    t0 = time.perf_counter()
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    line = p.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        p.kill()
        p.wait()
        fail(f"workload did not get ready: {line!r}")
    return p, ready


def time_setups(args):
    """Launch-to-ready times of SETUP_LAUNCHES set-up-only launches."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        p, ready = launch(args + ["--setup-only"])
        p.stdout.read()
        if p.wait() != 0:
            fail("setup-only launch failed")
        times.append(ready)
    return times


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be positive")

    build()
    scratch = os.path.join(".perfbench", f"{a.workload}-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--scratch", scratch]
    try:
        setups = time_setups(args) if not a.trace else []
        p, ready = launch(args)
        setups.append(ready)
        try:
            out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            fail("workload timed out")
        if p.returncode != 0:
            fail(f"workload exited with {p.returncode}")
        if not a.trace:
            setups += time_setups(args)
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"no result line: {lines[-1]!r}")
    if not a.trace:
        setup_s = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        lines.insert(-1, f"metric setup_s {setup_s:.6g} s")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
