#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): configure, build, and run the
# full test suite, then prove the TOTA_OBS=OFF configuration still
# compiles (its record operations become no-ops; the perf numbers it
# produces are meaningless, so it is built but not tested), and build
# the benchmark driver exactly as perfbench/run.py does, so a src/
# change that breaks the benchmark's compile fails here.
#
# Usage: scripts/tier1.sh            # from the repository root
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + test (TOTA_OBS=ON, the default) =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== tier-1: build only (TOTA_OBS=OFF: metrics compile to no-ops) =="
cmake -B build-obs-off -S . -DTOTA_OBS=OFF
cmake --build build-obs-off -j

echo "== tier-1: build the benchmark driver (perfbench/run.py) =="
python3 -c 'import sys; sys.path.insert(0, "perfbench"); import run; run.build()'

echo "tier-1 OK"
