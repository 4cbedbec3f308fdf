#!/usr/bin/env python3
"""Self-test of llmq's benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark, then runs every workload at tiny size for one second,
untraced and traced. Each run must exit 0 with a correct result whose
metrics are exactly the ones BENCHMARK.json names for that mode, all finite
(the binary itself fails a run whose traced simulated metrics differ from
the untraced ones). It also checks that the command line rejects an unknown
flag, an unknown workload and malformed values without printing a result.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

import run

ROOT = run.repo_root()


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check_result(binary, workload, trace, want):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}:\n"
             f"{proc.stdout[-3000:]}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail(f"{label}: not correct: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: {name} is not a finite number")
    print(f"selftest: ok {label}: {len(got)} metrics")


def check_rejected(binary, args, what):
    proc = subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"{what} was accepted: {args}")
    print(f"selftest: ok rejects {what}")


def main():
    binary = run.build()
    if binary is None:
        fail("build failed")
    workloads, end_to_end, per_layer = load_benchmark()
    listed = subprocess.run([binary, "--list"], capture_output=True,
                            text=True).stdout.split()
    if listed != workloads:
        fail(f"--list gives {listed}, BENCHMARK.json names {workloads}")
    base = ["--workload", "stream_fleet", "--seed", "1", "--seconds", "1"]
    check_rejected(binary, base + ["--sead", "2"], "an unknown flag")
    check_rejected(binary, ["--workload", "nope", "--seed", "1"],
                   "an unknown workload")
    check_rejected(binary, ["--workload", "stream_fleet", "--seed", "1x"],
                   "a malformed seed")
    check_rejected(binary, base + ["--trace", "2"], "an out-of-range trace")
    check_rejected(binary, ["--workload", "stream_fleet"], "a missing seed")
    for workload in workloads:
        check_result(binary, workload, 0, end_to_end)
        check_result(binary, workload, 1, per_layer)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
