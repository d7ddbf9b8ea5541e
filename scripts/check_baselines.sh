#!/usr/bin/env bash
# Runs the fixed-seed scenario benches in a temporary directory and
# checks every BENCH_<name>.json against its committed baseline in
# bench/baselines/ with scripts/check_bench_determinism.py (every
# baseline field must reappear bit-for-bit; new fields are allowed).
# ctest registers it under the label `baselines`, so baseline drift
# fails the ordinary test run.  About 3 s at Release.
#
# Usage: scripts/check_baselines.sh BENCH_BIN_DIR   # e.g. build/bench
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BENCH_BIN_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
bin=$(cd "$1" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

pairs=()
for name in fig1_gradient sec51_routing aggregation transport; do
  # The aggregation baseline covers shard counts 1, 2 and 4
  # (bench/baselines/README.md); pin them against the caller's setting.
  TOTA_BENCH_THREADS=1,2,4 "$bin/bench_$name" > "bench_$name.log"
  pairs+=("$root/bench/baselines/BENCH_$name.json" "BENCH_$name.json")
done
python3 "$root/scripts/check_bench_determinism.py" "${pairs[@]}"
