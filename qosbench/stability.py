#!/usr/bin/env python3
"""Runs each workload N times with seeds 1..N and prints, for every
metric, the median, the quartiles and the interquartile range as a share
of the median (the spread the end-to-end bounds are set from).

    python3 qosbench/stability.py --runs 10 [--workloads a,b]

Run it from the repository root. Each run is one process of run.sh with
the run length of BENCHMARK.json; the workloads default to the ones
BENCHMARK.json lists.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "qosbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, seconds)
            results.append(r)
            print(f"  {workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs of {seconds} s, "
              f"all correct={all(r['correct'] for r in results)}, failed shares={shares}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}  {unit}")


if __name__ == "__main__":
    main()
