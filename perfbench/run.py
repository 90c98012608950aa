#!/usr/bin/env python3
"""UpKit repository benchmark.

Builds perfbench/ (and the src/ libraries it links) from the checkout's
sources into .bench_build/perfbench, runs one workload in its own process,
checks the run's simulated outputs against the pinned values in
perfbench/pins.json, and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 they are its per-layer metrics (a layer the workload does not
exercise reads 0). Exit status: 0 when every check passed, 1 when an output
diverged, 2 when the benchmark could not run.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_rollout", "device_sessions", "release_train")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no UpKit sources at {ROOT / 'src'}; run from a repository checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD_DIR), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", str(BUILD_DIR), "--target", "upkit_perf", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            die("build failed")
    return BUILD_DIR / "upkit_perf"


def load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {what} {path}: {e}")


def main():
    definition = load_json(ROOT / "BENCHMARK.json", "benchmark definition")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=str(HERE / "pins.json"),
                        help="pinned outputs per workload and seed")
    args = parser.parse_args()

    pins = load_json(args.pins, "pins")
    binary = build()

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", str(BUILD_DIR / f"spans-{args.workload}.jsonl")]
    # The binary stops measuring after --seconds and then finishes its last
    # repetition (a traced one runs two); the timeout only guards a hang.
    timeout_s = 2 * args.seconds + 60
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {timeout_s:g} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        die(f"upkit_perf exited with status {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        run = json.loads(lines[-1])
    except ValueError:
        die(f"unreadable result line: {lines[-1]!r}")

    attempted = run["attempted"]
    failed = run["failed"]

    # Simulated outputs are pure functions of the seed: the first
    # repetition's digest must equal the value pinned for this seed.
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    if pinned is not None:
        attempted += 1
        if run["output"] != pinned:
            failed += 1
            print(f"pinned output mismatch for {args.workload} seed {args.seed}: "
                  f"got {run['output']}, pinned {pinned}", file=sys.stderr)

    declared = definition["per_layer" if args.trace else "end_to_end"]
    measured = run["metrics"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            if not args.trace:
                die(f"{args.workload} did not report end-to-end metric {name}")
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        if measured[name]["unit"] != unit:
            die(f"{name} measured in {measured[name]['unit']}, declared in {unit}")
        metrics[name] = {"value": measured[name]["value"], "unit": unit}
    undeclared = sorted(set(measured) - set(metrics))
    if undeclared:
        die(f"metrics missing from BENCHMARK.json: {', '.join(undeclared)}")

    if attempted:
        print(f"fail_ratio {failed / attempted:.6g} "
              f"({failed} failed of {attempted} checked operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
