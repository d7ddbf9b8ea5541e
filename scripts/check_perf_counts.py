#!/usr/bin/env python3
"""Work-count gate over the perfbench driver's traced runs.

Runs perfbench's `tota_perf` driver traced (--trace 1) twice per sim
workload (grid_flood, grid_churn, app_query) at fixed work — seed 7, a
fixed number of passes — and checks:

  * repeatability: the `engine.*` and `radio.*` counters (--counts-out)
    and every per-layer `*_allocs` metric are identical across the two
    runs, so a ceiling below is a property of the code, not of the run;
  * ceilings on heap allocations per delivered frame (`engine.rx_allocs`),
    per simulated broadcast (`sim.broadcast_allocs`) and per application
    read (`space.read_allocs`);
  * every output check of the driver passed (`failed` is 0).

The live workload (live_mass) runs once, traced, for a few rounds: its
counters follow wall-clock timing, so only its ceilings and output checks
are gated.  `net.batch.coalesce` (chunks per datagram) measures how much
standing control traffic rides each datagram.  Exit 77 from the driver
(no loopback UDP) skips it.

Wall-clock metrics are not gated: they measure the host as much as the
code, and perfbench/compare.py judges them over paired runs instead.

Usage, from the repository root (builds the driver first, as
perfbench/run.py does):
    scripts/check_perf_counts.py
Exits non-zero and names the offending metric on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

SEED = 7
# workload -> (passes, {metric: ceiling})
GATES = {
    "grid_flood": (2, {"engine.rx_allocs": 3.1, "sim.broadcast_allocs": 5.0}),
    "grid_churn": (1, {"engine.rx_allocs": 0.61, "sim.broadcast_allocs": 5.0}),
    "app_query": (1, {"engine.rx_allocs": 25.7, "space.read_allocs": 1.0}),
}
# live workload -> (timed rounds, {metric: ceiling})
LIVE_GATES = {
    "live_mass": (3, {"net.batch.coalesce": 14}),
}
REPEATED_COUNTS = ("engine.", "radio.")
SKIPPED = 77


def traced_run(binary, workload, passes):
    """One traced run: (result metrics by name, counters, failed ops), or
    None when the driver skipped the workload."""
    with tempfile.TemporaryDirectory() as d:
        counts_path = os.path.join(d, "counts.json")
        args = [binary, "--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--passes", str(passes), "--trace", "1",
                "--out-dir", d, "--counts-out", counts_path]
        proc = subprocess.run(
            args, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=600)
        if proc.returncode == SKIPPED:
            return None
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, args)
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        with open(counts_path) as f:
            counts = json.load(f)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, counts, result["failed"]


def check(binary, workload, passes, ceilings):
    """Returns the list of failures for one workload (empty when it passes)."""
    runs = [traced_run(binary, workload, passes) for _ in range(2)]
    errors = []
    for _, _, failed in runs:
        if failed:
            errors.append(f"{workload}: {failed} output checks failed")
    (m1, c1, _), (m2, c2, _) = runs
    for name in sorted(set(c1) | set(c2)):
        if name.startswith(REPEATED_COUNTS) and c1.get(name) != c2.get(name):
            errors.append(f"{workload}: counter {name} not repeatable: "
                          f"{c1.get(name)} vs {c2.get(name)}")
    for name in sorted(n for n in m1 if n.endswith("_allocs")):
        if m1[name] != m2.get(name):
            errors.append(f"{workload}: {name} not repeatable: "
                          f"{m1[name]} vs {m2.get(name)}")
    return errors + check_ceilings(workload, m1, ceilings)


def check_ceilings(workload, metrics, ceilings):
    """Prints each gated metric; returns the failures."""
    errors = []
    for name, ceiling in ceilings.items():
        value = metrics[name]
        verdict = "ok" if value <= ceiling else "OVER"
        print(f"{workload:11s} {name:22s} {value:10.4f} <= {ceiling:<5} "
              f"{verdict}")
        if value > ceiling:
            errors.append(f"{workload}: {name} = {value:.4f} exceeds "
                          f"its ceiling {ceiling}")
    return errors


def check_live(binary, workload, rounds, ceilings):
    """One traced live run: output checks and ceilings, or a skip."""
    run_result = traced_run(binary, workload, rounds)
    if run_result is None:
        print(f"{workload:11s} skipped (no loopback UDP)")
        return []
    metrics, _, failed = run_result
    errors = [f"{workload}: {failed} output checks failed"] if failed else []
    return errors + check_ceilings(workload, metrics, ceilings)


def main():
    binary = run.build()
    errors = []
    for workload, (passes, ceilings) in GATES.items():
        errors += check(binary, workload, passes, ceilings)
    for workload, (rounds, ceilings) in LIVE_GATES.items():
        errors += check_live(binary, workload, rounds, ceilings)
    for e in errors:
        print(f"FAIL  {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print("OK  work counts repeatable and under their ceilings")


if __name__ == "__main__":
    main()
