#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): configure, build, and run the
# full test suite in both observability configurations — the default,
# and TOTA_OBS=OFF, whose record operations compile to no-ops (its tests
# expect every recorded value to read 0, via tests/obs_expect.h; the
# baseline check is not registered there) — then build the benchmark
# driver exactly as perfbench/run.py does, so a src/ change that breaks
# the benchmark's compile fails here.
#
# Usage: scripts/tier1.sh            # from the repository root
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + test (TOTA_OBS=ON, the default) =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== tier-1: build + test (TOTA_OBS=OFF: metrics compile to no-ops) =="
cmake -B build-obs-off -S . -DTOTA_OBS=OFF
cmake --build build-obs-off -j
ctest --test-dir build-obs-off --output-on-failure -j "$(nproc)"

echo "== tier-1: build the benchmark driver (perfbench/run.py) =="
python3 -c 'import sys; sys.path.insert(0, "perfbench"); import run; run.build()'

echo "tier-1 OK"
