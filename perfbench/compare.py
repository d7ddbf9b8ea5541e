#!/usr/bin/env python3
"""Compares the benchmark results of two commits.

Collect a result set per commit (one JSON line per run), from the root of
each checkout:

    python3 perfbench/compare.py collect --workloads grid_flood,app_query \\
        --seeds 1-10 --out /tmp/base.jsonl

then compare them:

    python3 perfbench/compare.py diff /tmp/base.jsonl /tmp/change.jsonl

For every workload and metric, `diff` prints each side's median and
quartiles, the paired runs (same workload and seed) the change won, and a
verdict, using the bounds and directions in BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unchanged   within the bound, and the parent's spread is within it too;
  unresolved  the parent's own spread is wider than the bound (unless
              every change run beats every parent run), or the metric has
              no bound (per-layer metrics) and no clear win.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"better": m["better"], "bound": None}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    return metrics


def load_runs(path):
    """{(workload, metric): {seed: value}} from a JSON-lines result set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), {})[rec["seed"]] = \
                    m["value"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """Verdict for one metric; `base`/`change` map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, c_med, _ = quartiles(list(change.values()))
    gain = sign * (c_med - b_med)  # > 0: change is better
    spread = b_q3 - b_q1
    if seeds and wins >= 0.9 * len(seeds) and gain > spread:
        return "improved", wins, len(seeds)
    if bound is None:
        if seeds and losses >= 0.9 * len(seeds) and -gain > spread:
            return "regressed", wins, len(seeds)
        return "unresolved", wins, len(seeds)
    scale = abs(b_med) if b_med else 1.0
    if -gain > bound * scale:
        return "regressed", wins, len(seeds)
    if spread > bound * scale:
        all_better = all(sign * (c - b) > 0 for c in change.values()
                         for b in base.values())
        return ("improved" if all_better else "unresolved"), wins, len(seeds)
    return "unchanged", wins, len(seeds)


def diff(base_path, change_path, spec_path=None, out=sys.stdout):
    spec = load_spec(spec_path)
    base = load_runs(base_path)
    change = load_runs(change_path)
    rows = []
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        if metric not in spec:
            continue
        v, wins, pairs = verdict(base[key], change[key],
                                 spec[metric]["better"],
                                 spec[metric]["bound"])
        bq = quartiles(list(base[key].values()))
        cq = quartiles(list(change[key].values()))
        rows.append((workload, metric, bq, cq, wins, pairs, v))
    print(f"{'workload':<11} {'metric':<28} {'parent q1/median/q3':>34} "
          f"{'change q1/median/q3':>34} {'won':>7}  verdict", file=out)
    for workload, metric, bq, cq, wins, pairs, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:<11} {metric:<28} {fmt(bq):>34} {fmt(cq):>34} "
              f"{wins:>3}/{pairs:<3}  {v}", file=out)
    return rows


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(workloads, seeds, out_path, seconds, trace):
    with open(out_path, "a") as out:
        for workload in workloads:
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                result.update(workload=workload, seed=seed)
                out.write(json.dumps(result) + "\n")
                out.flush()
                print(f"{workload} seed {seed} done", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark, append results")
    c.add_argument("--workloads", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    c.add_argument("--out", required=True)
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("base")
    d.add_argument("change")
    args = p.parse_args()
    if args.cmd == "collect":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        collect(args.workloads.split(","), parse_seeds(args.seeds), args.out,
                seconds, args.trace)
    else:
        diff(args.base, args.change)


if __name__ == "__main__":
    main()
