#!/usr/bin/env python3
"""Builds and runs the TOTA benchmark (perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_flood --seed 1 --seconds 10 --trace 0

The first run configures and builds the TOTA libraries and the driver
binary (cpp/) with CMake into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs rebuild only what changed.  The driver's report goes
to stdout; its last line is the JSON result
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metric names are checked against BENCHMARK.json before it is
printed.  Build output and diagnostics go to stderr.  Exit codes: 0 ok,
77 live_mass skipped (no loopback UDP), anything else a failure.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid_flood", "grid_churn", "app_query", "live_mass")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds tota_perf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("TOTA sources (src/) not found next to perfbench/", 3)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out, "--target", "tota_perf", "-j",
             str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "tota_perf")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}")
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}", 3)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir(), "out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode == 77:
        fail(f"{args.workload} skipped: loopback UDP unavailable", 77)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        validate(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        fail(f"bad result line: {e}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
