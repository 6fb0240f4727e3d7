#!/usr/bin/env bash
# Cold-start smoke test for wfomc-snap/v2 plan-state snapshots, used by the
# CI cold-start job and runnable locally: boots the daemon against a fresh
# registry, registers and queries three plans — two lifted, one grounded
# (transitivity, whose count at n = 3 compiles a d-DNNF circuit) — and shuts
# down gracefully (which writes/refreshes the snapshots and compacts the
# log). A second boot must come up entirely from snapshots
# (snap.hits == plans) and serve bit-identical values, the grounded one
# from the snapshot's circuit (no ground-cache miss); a third boot — after
# one lifted snapshot is corrupted and the other truncated — must silently
# replan those two (snap.invalid == 2) and STILL serve the same values: a
# bad snapshot costs a replan, never an answer.
#
#   cargo build --release -p wfomc-serve && bash scripts/snapshot_smoke.sh
#
# WFOMC_SERVE_BIN and WFOMC_SERVE_ADDR override the binary and address.
set -euo pipefail

BIN="${WFOMC_SERVE_BIN:-target/release/wfomc-serve}"
ADDR="${WFOMC_SERVE_ADDR:-127.0.0.1:7181}"
WORKDIR="$(mktemp -d)"
REGISTRY="$WORKDIR/registry.jsonl"
SNAPDIR="$WORKDIR/snapshots"

DAEMON=""
boot() {
    "$BIN" serve --addr "$ADDR" --registry "$REGISTRY" --workers 2 &
    DAEMON=$!
    for _ in $(seq 1 50); do
        if "$BIN" list --addr "$ADDR" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "daemon did not come up on $ADDR" >&2
    exit 1
}
stop() {
    "$BIN" shutdown --addr "$ADDR" >/dev/null
    wait "$DAEMON"
    DAEMON=""
}
cleanup() {
    if [ -n "$DAEMON" ]; then
        kill "$DAEMON" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

extract_id() {
    sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p'
}
value_of() { # <id> <n>
    "$BIN" query --addr "$ADDR" "$1" --n "$2" | sed -n 's/.*"value":"\([-0-9/]*\)".*/\1/p'
}
metric() { # <counter name>
    "$BIN" metrics --addr "$ADDR" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

S1='forall x. forall y. S(x) | N(x,y) | S(y)'
S2='forall x. exists y. R(x,y)'
S3='forall x. forall y. forall z. E(x,y) & E(y,z) -> E(x,z)'

# --- Cold boot: register three plans, record their values, shut down.
boot
ID1="$("$BIN" register --addr "$ADDR" "$S1" | extract_id)"
ID2="$("$BIN" register --addr "$ADDR" "$S2" | extract_id)"
ID3="$("$BIN" register --addr "$ADDR" "$S3" | extract_id)"
test -n "$ID1" && test -n "$ID2" && test -n "$ID3" || {
    echo "registration returned no id" >&2
    exit 1
}
V1="$(value_of "$ID1" 6)"
V2="$(value_of "$ID2" 6)"
V3="$(value_of "$ID3" 3)"
test -n "$V1" && test -n "$V2" && test -n "$V3" || { echo "query returned no value" >&2; exit 1; }
stop

for id in "$ID1" "$ID2" "$ID3"; do
    test -f "$SNAPDIR/$id.snap" || { echo "missing snapshot $SNAPDIR/$id.snap" >&2; exit 1; }
done
"$BIN" snapshots --registry "$REGISTRY" | grep -c '"status":"ok"' | grep -qx 3 || {
    echo "expected three valid snapshots in the store listing" >&2
    exit 1
}

# --- Warm boot: every plan restores from its snapshot, values identical.
# The grounded plan answers n = 3 from the snapshot's compiled circuit, so
# its ground cache records no miss.
boot
HITS="$(metric 'snap.hits')"
test "$HITS" = "3" || { echo "expected 3 snapshot hits on warm boot, got '$HITS'" >&2; exit 1; }
test "$(value_of "$ID1" 6)" = "$V1" || { echo "warm boot changed $ID1's value" >&2; exit 1; }
test "$(value_of "$ID2" 6)" = "$V2" || { echo "warm boot changed $ID2's value" >&2; exit 1; }
test "$(value_of "$ID3" 3)" = "$V3" || { echo "warm boot changed $ID3's value" >&2; exit 1; }
"$BIN" stats --addr "$ADDR" "$ID3" | grep -q '"ground_misses":0' || {
    echo "warm boot re-grounded $ID3 instead of using the snapshot's circuit" >&2
    exit 1
}
stop

# --- Corrupt one snapshot (trailing garbage breaks the length/checksum)
# and truncate another mid-header: the boot must fall back to replanning
# both, count them invalid, and serve the same bits as before.
printf 'garbage' >>"$SNAPDIR/$ID1.snap"
truncate -s 12 "$SNAPDIR/$ID2.snap"
"$BIN" snapshots --registry "$REGISTRY" | grep -c '"status":"invalid' | grep -qx 2 || {
    echo "store listing failed to flag the corrupted snapshots" >&2
    exit 1
}
boot
INVALID="$(metric 'snap.invalid')"
test "$INVALID" = "2" || { echo "expected 2 invalid snapshots, got '$INVALID'" >&2; exit 1; }
test "$(value_of "$ID1" 6)" = "$V1" || { echo "corrupt fallback changed $ID1's value" >&2; exit 1; }
test "$(value_of "$ID2" 6)" = "$V2" || { echo "corrupt fallback changed $ID2's value" >&2; exit 1; }
test "$(value_of "$ID3" 3)" = "$V3" || { echo "corrupt fallback changed $ID3's value" >&2; exit 1; }
stop

# The fallback replans rewrote valid snapshots on the way out.
"$BIN" snapshots --registry "$REGISTRY" | grep -c '"status":"ok"' | grep -qx 3 || {
    echo "fallback boot did not rewrite valid snapshots" >&2
    exit 1
}

trap - EXIT
cleanup
echo "snapshot smoke: ok"
