#!/usr/bin/env python3
"""Spread report for the repository benchmark.

Reruns workloads through perfbench/run.py on seeds 1..runs, each run as long
as BENCHMARK.json's run_seconds, and prints for each end-to-end metric its
median, quartiles, min/max and the quartile spread (Q3 - Q1) / median next
to the bound BENCHMARK.json allows. This is the evidence behind the bounds:
a metric whose spread is not well inside its bound cannot tell a regression
from host noise, so each gets a verdict: ok below a third of its bound, WIDE
otherwise.

usage: python3 perfbench/spread.py [--workload NAME ...] [--runs 10]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"spread: {workload} seed {seed} exited with status {done.returncode}")
    return json.loads(lines[-1])


def report(workload, runs, declared):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14}"
          f" {'iqr/med':>8} {'bound':>6}")
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        values = [run["metrics"][name]["value"] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(values):14.6g}"
              f" {max(values):14.6g} {spread:8.2%} {bound:>6} {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in definition["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to rerun (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            run = run_once(workload, seed, definition["run_seconds"])
            runs.append(run)
            values = " ".join(f"{m}={v['value']:.6g}" for m, v in run["metrics"].items())
            print(f"  seed {seed}: correct={run['correct']} {values}", flush=True)
        report(workload, runs, definition["end_to_end"])


if __name__ == "__main__":
    main()
