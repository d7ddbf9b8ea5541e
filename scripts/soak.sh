#!/usr/bin/env bash
# Adversarial soak run (docs/NET.md): builds and executes the seeded
# soak suite — N in-process engines plus discovery on a shared channel
# wrapped in net::FaultInjector chaos (drop/dup/reorder/truncate/corrupt
# plus scheduled partitions), then convergence invariants after quiesce.
#
# The suite itself lives in tests/test_soak.cc and already runs as part
# of ctest; this wrapper exists to (a) run it standalone and repeatedly,
# and (b) run it under sanitizers, which is how CI shakes out lifetime
# bugs in the fault/hold-timer paths.
#
# Usage: scripts/soak.sh [repeat] [sanitizer-flags]
#   repeat           how many times to repeat the suite (default: 1;
#                    the runs are deterministic, so >1 only guards
#                    against environment-dependent flakiness)
#   sanitizer-flags  extra compile/link flags, e.g.
#                    "-fsanitize=address,undefined" — builds into a
#                    separate tree (build-soak-san/) so the default
#                    build stays clean
set -euo pipefail
cd "$(dirname "$0")/.."

REPEAT=${1:-1}
SANFLAGS=${2:-}

if [[ -n "$SANFLAGS" ]]; then
  BUILD=build-soak-san
  echo "== soak: sanitizer build ($SANFLAGS) =="
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SANFLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SANFLAGS"
else
  BUILD=build
  echo "== soak: default build =="
  cmake -B "$BUILD" -S .
fi
cmake --build "$BUILD" -j "$(nproc)" --target test_soak test_transport

if [[ ! -x "$BUILD/tests/test_soak" ]]; then
  # tota_net (and with it the soak suite) is Unix-only.
  echo "soak: test_soak not built on this platform, skipping" >&2
  exit 77
fi

for ((i = 1; i <= REPEAT; ++i)); do
  echo "== soak: run $i/$REPEAT =="
  "$BUILD/tests/test_soak" --gtest_brief=1
  # The transport soak legs (tests/test_transport.cc): the drop-0.3
  # reliable-retraction scenario (best-effort leaks, the reliable
  # channel drains every RETRACT), the batching datagram-cost ratio,
  # and the anti-entropy partition-heal run.
  "$BUILD/tests/test_transport" --gtest_brief=1 \
    --gtest_filter='TransportSoak.*:TransportBatch.*:TransportSync.*'
done

echo "soak OK"
