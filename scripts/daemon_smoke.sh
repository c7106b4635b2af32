#!/usr/bin/env bash
# End-to-end smoke of the sctuned daemon (DESIGN.md §14), run by the CI
# daemon-smoke job:
#
#   1. daemon flow responses are byte-identical to the standalone CLI's
#      `flow --report` output — fresh, cached, over the Unix socket or the
#      TCP loopback port, it must not matter;
#   2. `lint` and `sta` print the same stdout and exit with the same code
#      locally and through `client` (one job table serves both);
#   3. a duplicate-heavy mix moves the cache-hit and single-flight counters
#      in the health snapshot (sct-metrics-v1 JSON over the socket);
#   4. SIGTERM drains and the daemon exits 0.
#
#   scripts/daemon_smoke.sh
#
# Environment:
#   BUILD_DIR  build tree with sctune + sctuned  (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
WORK="$(mktemp -d /tmp/sctuned_smoke.XXXXXX)"
SOCK="$WORK/sctuned.sock"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

cmake --build "$BUILD_DIR" -j --target sctune_cli sctuned >/dev/null

"$BUILD_DIR/tools/sctuned" --socket "$SOCK" --tcp --cache-dir "$WORK/cache" \
  >"$WORK/daemon.out" &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q 'listening on 127\.0\.0\.1:' "$WORK/daemon.out" && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never bound $SOCK"; exit 1; }
# "sctuned: listening on 127.0.0.1:<port> and <socket>"
TCP_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
  "$WORK/daemon.out")"
[ -n "$TCP_PORT" ] || { echo "daemon printed no TCP port"; exit 1; }

CLI="$BUILD_DIR/tools/sctune"
FLOW_ARGS=(--profile small --mc 6 --period 8.0 --method sigma-ceiling --value 0.02)

# 1. Byte-identity: standalone CLI report vs daemon response body, and the
# daemon's cached second answer vs its first.
"$CLI" flow "${FLOW_ARGS[@]}" --cache-dir "$WORK/cli-cache" \
  --report "$WORK/cli.txt" >/dev/null
"$CLI" client flow --socket "$SOCK" "${FLOW_ARGS[@]}" \
  --report "$WORK/daemon1.txt" >/dev/null
"$CLI" client flow --socket "$SOCK" "${FLOW_ARGS[@]}" \
  --report "$WORK/daemon2.txt" >/dev/null
cmp "$WORK/cli.txt" "$WORK/daemon1.txt"
cmp "$WORK/daemon1.txt" "$WORK/daemon2.txt"
echo "daemon responses byte-identical to the CLI flow report"

# 1b. The same request twice over the TCP loopback port.
for n in 1 2; do
  "$CLI" client flow --tcp-port "$TCP_PORT" "${FLOW_ARGS[@]}" \
    --report "$WORK/tcp$n.txt" >/dev/null
  cmp "$WORK/cli.txt" "$WORK/tcp$n.txt"
done
echo "TCP responses byte-identical to the CLI flow report"

# 2. Local vs daemon for lint (the README's positional form, exit 3 on the
# corrupt fixture's errors) and for sta on a characterized library and the
# synthesized accumulator.
expect_rc() {  # expect_rc CODE OUT -- command...
  local want="$1" out="$2" rc=0
  shift 3
  "$@" >"$out" || rc=$?
  [ "$rc" -eq "$want" ] || { echo "exit $rc, expected $want: $*"; exit 1; }
}
LINT_FIXTURE=tests/data/corrupt_axis.lib
expect_rc 3 "$WORK/lint-cli.json" -- \
  "$CLI" lint "$LINT_FIXTURE" --json
expect_rc 3 "$WORK/lint-daemon.json" -- \
  "$CLI" client lint --socket "$SOCK" "$LINT_FIXTURE" --json
cmp "$WORK/lint-cli.json" "$WORK/lint-daemon.json"
"$CLI" characterize --out "$WORK/nominal.lib" >/dev/null
"$CLI" synth --lib "$WORK/nominal.lib" --design accumulator --period 4.0 \
  --out "$WORK/acc.v" >/dev/null
STA_ARGS=(--lib "$WORK/nominal.lib" --netlist "$WORK/acc.v" --period 4.0)
expect_rc 0 "$WORK/sta-cli.txt" -- "$CLI" sta "${STA_ARGS[@]}"
expect_rc 0 "$WORK/sta-daemon.txt" -- \
  "$CLI" client sta --socket "$SOCK" "${STA_ARGS[@]}"
cmp "$WORK/sta-cli.txt" "$WORK/sta-daemon.txt"
echo "lint and sta: local and daemon stdout and exit codes identical"

# 3. Duplicate-heavy mix: four concurrent identical cold requests — one
# leader computes, the rest coalesce — then assert the counters moved.
CLIENT_PIDS=()
for _ in 1 2 3 4; do
  "$CLI" client flow --socket "$SOCK" --profile small --mc 6 --period 9.5 \
    --method sigma-ceiling --value 0.02 >/dev/null &
  CLIENT_PIDS+=("$!")
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done

"$CLI" client health --socket "$SOCK" --out "$WORK/health.json" >/dev/null
grep -q '"schema": "sct-metrics-v1"' "$WORK/health.json"
grep -Eq '"server\.cache\.hits": [1-9]' "$WORK/health.json"
grep -Eq '"server\.singleflight\.leader": [1-9]' "$WORK/health.json"
grep -Eq '"server\.singleflight\.coalesced": [1-9]' "$WORK/health.json"
echo "cache-hit and single-flight counters > 0:"
grep -E '"server\.(cache|singleflight)\.' "$WORK/health.json" || true

# 4. Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
DAEMON_PID=""
[ "$RC" -eq 0 ] || { echo "daemon exited $RC after SIGTERM"; exit 1; }
[ ! -S "$SOCK" ] || { echo "socket file survived shutdown"; exit 1; }
echo "daemon drained and exited 0 on SIGTERM"
