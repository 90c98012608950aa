#!/usr/bin/env python3
"""The benchmark's own test: a wrong pinned output must fail the run.

For each workload, runs perfbench/run.py on seed 1 (--seconds 1) twice:
against the committed pins, which must pass with exit status 0 and
"correct": true, and against a copy whose seed-1 pin is corrupted, which
must exit 1 with "correct": false and one more failed operation.

usage: python3 perfbench/test_pins.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"


def run(workload, pins):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", "0", "--pins", str(pins)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    failures = []
    for workload in ("fleet_rollout", "device_sessions", "release_train"):
        pinned = pins.get(workload, {}).get("1")
        if pinned is None:
            failures.append(f"{workload}: no pin for seed 1")
            continue
        status, good = run(workload, pins_path)
        if status != 0 or not good or not good["correct"] or good["failed"] != 0:
            failures.append(f"{workload}: committed pins did not pass (exit {status})")
            continue

        wrong = json.loads(json.dumps(pins))
        wrong[workload]["1"] = ("0" if pinned[0] != "0" else "1") + pinned[1:]
        SCRATCH.mkdir(parents=True, exist_ok=True)
        wrong_path = SCRATCH / f"test-pins-{workload}.json"
        wrong_path.write_text(json.dumps(wrong), encoding="utf-8")
        status, bad = run(workload, wrong_path)
        if status != 1 or not bad or bad["correct"] or bad["failed"] != 1:
            failures.append(f"{workload}: a wrong pin did not fail the run (exit {status})")
            continue
        print(f"ok   {workload}: pinned output {pinned} checked; a wrong pin exits 1")

    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
