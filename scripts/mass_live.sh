#!/usr/bin/env bash
# Mass-live soak: hundreds of real-socket TOTA nodes in ONE process on a
# loopback UDP broadcast channel, under FaultInjector chaos (docs/NET.md).
#
# tota_node --count N hosts N complete nodes — each its own UDP socket,
# NetSession, engine, and metric hub — on one multi-tenant EventLoop
# (epoll by default).  The script drives the canonical scenario:
#
#   1. node 1 injects a gradient field;
#   2. every node must converge to the BFS-exact hop count (0 at the
#      source, 1 everywhere else on a shared channel) with the full
#      discovery mesh formed;
#   3. the source is killed; every survivor must observe the departure
#      (k missed beacons) and self-maintenance must retract the orphaned
#      replicas — zero leaks.
#
# Chaos is on by default (10% drop, 5% duplicate, 5% reorder on every
# node's receive path, seeded and reproducible); pass CHAOS=0 to soak the
# clean path.  tota_node works the session settings out from N
# (net::MassLiveOptions::for_population): the beacon period scales as
# max(250 ms, N^2/300 ms) — presence traffic on a shared channel is
# O(N^2/period), so 1000 nodes at a 250 ms beacon would melt a single
# kernel long before the middleware is the bottleneck — and expiry takes
# 6 missed beacons.  Validated: 300 @ 300ms ~4s, 500 @ 833ms ~13s,
# 1000 @ 3333ms ~60s, all leak-free under chaos.
#
# Exit codes: 0 pass, 1 fail, 77 skip (sockets unavailable — ctest/CI
# treat 77 as SKIP).
#
# Usage: scripts/mass_live.sh [path/to/tota_node] [nodes] [port]
#   env: CHAOS=0|1 (default 1), DURATION_MS (default 90000), SEED
set -uo pipefail

BIN=${1:-build/examples/tota_node}
NODES=${2:-300}
# Per-run port derived from this shell's PID: parallel runs on one host
# get their own shared channel instead of seeing each other's traffic.
PORT=${3:-$((52000 + $$ % 10000))}
GROUP=127.255.255.255
# Phase budget; the beacon period grows as N^2 (above), and expiry
# detection is 6 beacons, so big worlds need a longer leash.
DURATION_MS=${DURATION_MS:-$(( NODES > 500 ? 180000 : 90000 ))}
CHAOS=${CHAOS:-1}
SEED=${SEED:-7}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

if [[ ! -x "$BIN" ]]; then
  echo "mass_live: $BIN not built" >&2
  exit 77
fi

if ! "$BIN" --probe --id 9 --mode bcast --group "$GROUP" --port "$PORT" \
    >/dev/null 2>&1; then
  echo "mass_live: loopback UDP unavailable, skipping" >&2
  exit 77
fi

args=(--count "$NODES" --mode bcast --group "$GROUP" --port "$PORT"
      --duration-ms "$DURATION_MS" --inject soak --kill-source --seed "$SEED"
      --metrics "$DIR/metrics.json")
if [[ "$CHAOS" == 1 ]]; then
  args+=(--drop 0.1 --dup 0.05 --reorder 0.05)
fi

echo "mass_live: $NODES nodes, chaos=$CHAOS, port $PORT"
"$BIN" "${args[@]}" | tee "$DIR/run.out"
rc=${PIPESTATUS[0]}
if [[ "$rc" == 2 ]]; then
  echo "mass_live: sockets became unavailable, skipping" >&2
  exit 77
fi

fail() {
  echo "mass_live: FAIL — $1" >&2
  exit 1
}

[[ "$rc" == 0 ]] || fail "tota_node exited $rc"
grep -q "^CONVERGED " "$DIR/run.out" || fail "never converged BFS-exact"
grep -q "^RETRACTED .* leaks=0$" "$DIR/run.out" \
  || fail "orphaned replicas leaked after the source died"
grep -q "^FINAL-MASS nodes=$NODES converged=1 leaks=0 " "$DIR/run.out" \
  || fail "final invariants not met"

echo "mass_live: OK ($NODES nodes converged BFS-exact; source death retracted leak-free)"
exit 0
