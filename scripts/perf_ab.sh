#!/usr/bin/env bash
# Paired A/B run of the repository's benchmark (perfbench, described by
# BENCHMARK.json) between a base revision and the committed HEAD, on one
# host. This is the CI performance gate:
#
#   scripts/perf_ab.sh <base-rev>
#
# Both revisions are checked out into temporary git worktrees (building
# perfbench rewrites perfbench/Cargo.lock, and the checkout must stay
# unmodified) and perfbench is built --offline in each. Every workload then
# runs in 10 pairs of 10 s runs. Pair i uses seed i on both sides, the side
# that runs first alternates from pair to pair, each side runs from its own
# tree root, and only one run is active at a time.
#
# The gate fails when any HEAD run is not `correct`, when HEAD's share of
# failed operations exceeds the base's, or when the median of any end-to-end
# metric is worse than the base's median by more than the metric's bound.
# The workloads, metrics and bounds come from the base's BENCHMARK.json, so
# a change cannot loosen its own gate. When HEAD changes perfbench/ or
# BENCHMARK.json, both sides run HEAD (an A/A run): a benchmark change is
# not measured against the benchmark it replaces.
#
# Needs bash, git, jq and an offline-capable cargo. Scratch space comes
# from mktemp.
set -euo pipefail

readonly PAIRS=10
readonly RUN_SECONDS=10

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/perf_ab.sh <base-rev>" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify HEAD)
bench=$(git show "$base:BENCHMARK.json")

against=$base
if ! git diff --quiet "$base" "$head" -- perfbench BENCHMARK.json; then
    echo "perf_ab: HEAD changes the benchmark; both sides run HEAD"
    against=$head
fi

work=$(mktemp -d)
cleanup() {
    for side in base head; do
        if [[ -d "$work/$side" ]]; then
            git worktree remove --force "$work/$side" || true
        fi
    done
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

declare -A rev=([base]=$against [head]=$head)
# Each tree builds into its own target directory, even when
# CARGO_TARGET_DIR is set, so the two binaries never overwrite each other.
for side in base head; do
    echo "perf_ab: building perfbench for $side (${rev[$side]:0:12})"
    git worktree add --quiet --detach "$work/$side" "${rev[$side]}"
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/perfbench/Cargo.toml" \
        --target-dir "$work/$side/perfbench/target"
done

# One run: prints the run's JSON line (the last line perfbench writes),
# tagged with its side, workload and pair.
run() {
    local side=$1 workload=$2 pair=$3 out
    out=$(cd "$work/$side" && perfbench/target/release/wfomc-perfbench \
        --workload "$workload" --seed "$pair" --seconds "$RUN_SECONDS" --trace 0)
    tail -n 1 <<<"$out" | jq -c --arg side "$side" --arg workload "$workload" \
        --argjson pair "$pair" '{side: $side, workload: $workload, pair: $pair} + .'
}

runs="$work/runs.jsonl"
for workload in $(jq -r '.workloads[].name' <<<"$bench"); do
    for ((pair = 1; pair <= PAIRS; pair++)); do
        if ((pair % 2)); then order="base head"; else order="head base"; fi
        for side in $order; do
            run "$side" "$workload" "$pair" | tee -a "$runs" |
                jq -r '"\(.workload) pair \(.pair) \(.side): correct \(.correct), \(.failed) of \(.attempted) failed"'
        done
    done
done

# The report: per workload, the failed shares and every end-to-end metric's
# median and quartiles on both sides; the last line is the verdict.
jq -rs --argjson bench "$bench" '
    def quantile($q): sort as $s | ((($s | length) - 1) * $q) as $p
        | ($p | floor) as $lo | ($p | ceil) as $hi
        | $s[$lo] + ($s[$hi] - $s[$lo]) * ($p - $lo);
    def summary: {q1: quantile(0.25), median: quantile(0.5), q3: quantile(0.75)};
    def share: (map(.failed) | add) / (map(.attempted) | add);
    def fmt: if . == 0 then "0" else (fabs | log10 | floor) as $e
        | pow(10; 3 - $e) as $f | . * $f | round / $f | tostring end;
    def pad($n): tostring | . + (" " * ($n - length));
    def spread: "\(.median | fmt) [\(.q1 | fmt), \(.q3 | fmt)]";
    . as $runs
    | [$bench.workloads[].name as $w
        | ($runs | map(select(.workload == $w and .side == "base"))) as $b
        | ($runs | map(select(.workload == $w and .side == "head"))) as $h
        | {
            workload: $w,
            incorrect: ($h | map(select(.correct != true)) | length),
            base_share: ($b | share),
            head_share: ($h | share),
            metrics: [$bench.end_to_end[] as $m
                | ($b | map(.metrics[$m.name].value | numbers)) as $bv
                | ($h | map(.metrics[$m.name].value | numbers)) as $hv
                | select(($bv | length) > 0 and ($hv | length) > 0)
                | ($bv | summary) as $bs | ($hv | summary) as $hs
                | $m + {
                    base: $bs,
                    head: $hs,
                    worse: (if $m.better == "lower"
                        then $hs.median > $bs.median * (1 + $m.bound)
                        else $hs.median < $bs.median * (1 - $m.bound) end)
                }]
        }] as $report
    | ($report[]
        | "\n\(.workload): failed share base \(.base_share | fmt), head \(.head_share | fmt); \(.incorrect) HEAD run(s) not correct",
          "  " + ("metric" | pad(18)) + ("unit" | pad(5)) + ("better" | pad(7)) + ("bound" | pad(6))
            + ("base median [q1, q3]" | pad(36)) + "head median [q1, q3]",
          (.metrics[]
            | "  " + (.name | pad(18)) + (.unit | pad(5)) + (.better | pad(7)) + (.bound | pad(6))
              + (.base | spread | pad(36)) + (.head | spread) + (if .worse then "  WORSE" else "" end))),
      ([$report[]
        | (select(.incorrect > 0) | "\(.workload): \(.incorrect) HEAD run(s) not correct"),
          (select(.head_share > .base_share)
            | "\(.workload): failed share \(.head_share | fmt) exceeds the base'"'"'s \(.base_share | fmt)"),
          (.workload as $w | .metrics[] | select(.worse)
            | "\($w) \(.name): median \(.head.median | fmt) vs \(.base.median | fmt), beyond the \(.bound) bound")]
        | if length == 0 then "\nperf_ab: pass" else "\nperf_ab: FAIL", (.[] | "  " + .) end)
' "$runs" | tee "$work/report.txt"

grep -qx 'perf_ab: pass' "$work/report.txt"
