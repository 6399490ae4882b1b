#!/usr/bin/env python3
"""Steadiness mode: runs the benchmark as two sets of runs of the same
build and reports, per workload and end-to-end metric, each set's median
and quartiles, the spread (interquartile distance over the median), and
whether the two sets agree within the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 benchmark/steady.py [--runs 10] [--workloads a,b]

Every run gets its own seed: run i of set s uses 100 + s*runs + i.
The sets agree on a metric when the spread of each set is within the
bound and the two medians differ, in either direction, by at most the
bound of the first. As in the benchmark's acceptance rule, the spread of
setup_s is reported but not held to its bound: on palid_sift and
served_ingest set-up takes about a millisecond, and its run-to-run
spread follows the host's page-fault and file-system latency, not the
code; its medians must still agree. Exit code 1 when the sets do not
agree on every metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 100
SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    agree = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + s * args.runs + i
                values, elapsed = run_once(bench["command"], workload, seed, seconds)
                shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
                print(f"  {workload} set {s} seed {seed}: {elapsed:.1f} s  {shown}", file=sys.stderr, flush=True)
                runs.append(values)
            sets.append(runs)
        print(f"\n== {workload} ({SETS} sets x {args.runs} runs, {seconds} s each) ==")
        print(f"  {'metric':<16} {'bound':>6}  " + "  ".join(
            f"{'set'+str(s)+' median':>14} {'q1':>11} {'q3':>11} {'spread':>7}" for s in range(SETS)) + "  verdict")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [summary([r[name] for r in runs]) for runs in sets]
            first, second = stats[0][0], stats[1][0]
            worse = (second - first) / first if lower else (first - second) / first
            spreads_ok = name == "setup_s" or all(st[3] <= bound for st in stats)
            ok = spreads_ok and abs(worse) <= bound
            agree &= ok
            cells = "  ".join(f"{st[0]:>14.6g} {st[1]:>11.6g} {st[2]:>11.6g} {st[3]:>7.3f}" for st in stats)
            flag = "" if ok else "  <-- outside bound"
            third = "" if all(st[3] <= bound / 3 for st in stats) else " (spread above bound/3)"
            print(f"  {name:<16} {bound:>6.2f}  {cells}  {'agree' if ok else 'DISAGREE'} (2nd vs 1st {worse:+.3f}){third}{flag}")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
