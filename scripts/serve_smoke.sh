#!/usr/bin/env bash
# Smoke test for the wfomc-serve daemon, used by the CI serve job and
# runnable locally: boots the daemon against a fresh registry log, drives a
# register / query / stats / metrics cycle through the CLI client, checks
# that a deadline-capped query fails typed without poisoning the plan, and
# shuts the daemon down gracefully — asserting it exits 0 within about 10 s.
# It runs four workers, so the shutdown must wake each one blocked in
# accept; a worker left blocked fails the script instead of hanging it.
#
#   cargo build --release -p wfomc-serve && bash scripts/serve_smoke.sh
#
# WFOMC_SERVE_BIN and WFOMC_SERVE_ADDR override the binary and address.
set -euo pipefail

BIN="${WFOMC_SERVE_BIN:-target/release/wfomc-serve}"
ADDR="${WFOMC_SERVE_ADDR:-127.0.0.1:7171}"
WORKDIR="$(mktemp -d)"
REGISTRY="$WORKDIR/registry.jsonl"

"$BIN" serve --addr "$ADDR" --registry "$REGISTRY" --workers 4 &
DAEMON=$!
cleanup() {
    kill "$DAEMON" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Wait for the listener to come up.
for _ in $(seq 1 50); do
    if "$BIN" list --addr "$ADDR" >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done

SENTENCE='forall x. forall y. S(x) | N(x,y) | S(y)'
REGISTER_JSON="$("$BIN" register --addr "$ADDR" "$SENTENCE")"
echo "register: $REGISTER_JSON"
ID="$(printf '%s' "$REGISTER_JSON" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')"
test -n "$ID" || { echo "no plan id in register response" >&2; exit 1; }

"$BIN" query --addr "$ADDR" "$ID" --n 5
"$BIN" stats --addr "$ADDR" "$ID" >/dev/null
"$BIN" metrics --addr "$ADDR" >/dev/null
grep -q '"kind":"register"' "$REGISTRY" || {
    echo "registration was not persisted to $REGISTRY" >&2
    exit 1
}

# A deadline-capped query must fail (typed 422, non-zero CLI exit) ...
if "$BIN" query --addr "$ADDR" "$ID" --n 400 --timeout-ms 0 >/dev/null 2>&1; then
    echo "expected the deadline-capped query to fail" >&2
    exit 1
fi
# ... without poisoning the plan for the next query.
"$BIN" query --addr "$ADDR" "$ID" --n 5 >/dev/null

# Graceful shutdown: drain and exit 0, within a bounded wait.
"$BIN" shutdown --addr "$ADDR" >/dev/null
for _ in $(seq 1 100); do
    kill -0 "$DAEMON" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$DAEMON" 2>/dev/null; then
    echo "daemon did not exit within 10 s of shutdown" >&2
    exit 1
fi
wait "$DAEMON"
trap - EXIT
cleanup
echo "serve smoke: ok"
