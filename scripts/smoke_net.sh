#!/usr/bin/env bash
# Multi-process smoke test of the live-network runtime (docs/NET.md).
#
# Launches 3 tota_node processes on a loopback UDP broadcast group:
#   node 1 injects a gradient field and exits early (simulating a crash —
#          readers must observe discovery expiry + self-maintenance);
#   nodes 2 and 3 read the field for the whole run.
#
# Asserts:
#   1. the gradient reaches nodes 2 and 3 with the BFS-correct hop value
#      (1: everyone is one hop from everyone on a shared channel);
#   2. after node 1 dies, both readers expire it (neighbour down) and the
#      engine retracts the orphaned replica (reads turn "absent").
#
# Exit codes: 0 pass, 1 fail, 77 skip (sockets unavailable here — ctest
# and CI treat 77 as SKIP, not failure).
#
# Usage: scripts/smoke_net.sh [path/to/tota_node] [port]
set -uo pipefail

BIN=${1:-build/examples/tota_node}
# Per-run port derived from this shell's PID: parallel ctest/CI runs on
# one host each get their own shared channel instead of colliding
# through SO_REUSEPORT semantics and seeing each other's traffic.
PORT=${2:-$((42000 + $$ % 10000))}
GROUP=127.255.255.255
MODE=bcast
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$DIR"' EXIT

if [[ ! -x "$BIN" ]]; then
  echo "smoke_net: $BIN not built" >&2
  exit 77
fi

# Socket availability probe: sandboxes without UDP (or without loopback
# broadcast) skip instead of failing.
if ! "$BIN" --probe --id 9 --mode "$MODE" --group "$GROUP" --port "$PORT" \
    >/dev/null 2>&1; then
  echo "smoke_net: loopback UDP unavailable, skipping" >&2
  exit 77
fi

common=(--mode "$MODE" --group "$GROUP" --port "$PORT"
        --beacon-ms 150 --expiry-k 3 --read-every-ms 150)

# Readers outlive the injector by several expiry windows.
"$BIN" --id 2 "${common[@]}" --read smoke --duration-ms 6000 \
    >"$DIR/n2.out" 2>&1 &
"$BIN" --id 3 "${common[@]}" --read smoke --duration-ms 6000 \
    >"$DIR/n3.out" 2>&1 &
sleep 0.3
# The injector "crashes" (exits) halfway through the readers' lifetime.
"$BIN" --id 1 "${common[@]}" --inject smoke --duration-ms 2500 \
    >"$DIR/n1.out" 2>&1 &
wait

fail() {
  echo "smoke_net: FAIL — $1" >&2
  for f in "$DIR"/n*.out; do
    echo "--- $f ---" >&2
    cat "$f" >&2
  done
  exit 1
}

for n in 2 3; do
  out="$DIR/n$n.out"
  [[ -s "$out" ]] || fail "node $n produced no output"

  # 1. Convergence: the gradient arrived with the BFS-correct hop value
  #    (and never any other value).
  grep -q "name=smoke hops=1$" "$out" \
    || fail "node $n never read the gradient at hop 1"
  if grep "^READ" "$out" | grep -vq "hops=1$\|hops=absent$"; then
    fail "node $n read a non-BFS hop value"
  fi

  # 2. Failure handling: the dead injector expired (>=1 neighbour down)
  #    and the replica was retracted (final read is absent).
  final=$(tail -1 "$out")
  [[ "$final" == FINAL* ]] || fail "node $n has no FINAL line"
  grep -q "hops=absent" <<<"$final" \
    || fail "node $n still holds the orphaned replica: $final"
  # The injector left the neighbour table (only the other reader stays),
  # and, where metrics record (up >= 1; TOTA_OBS=OFF reads 0), the
  # departure was counted as a neighbour-down event.
  neighbors=$(sed -n 's/.* neighbors=\([0-9]*\).*/\1/p' <<<"$final")
  [[ "${neighbors:-0}" -eq 1 ]] \
    || fail "node $n never dropped the injector from its table: $final"
  up=$(sed -n 's/.* up=\([0-9]*\).*/\1/p' <<<"$final")
  down=$(sed -n 's/.* down=\([0-9]*\).*/\1/p' <<<"$final")
  if [[ "${up:-0}" -ge 1 && "${down:-0}" -lt 1 ]]; then
    fail "node $n never observed the injector's departure: $final"
  fi
done

echo "smoke_net: OK (gradient converged at hop 1; source death expired + retracted)"
exit 0
