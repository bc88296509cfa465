#!/usr/bin/env bash
# Snapshot the enumeration-critical benchmarks into a small JSON file so the
# perf trajectory is tracked in-repo from PR to PR:
#
#   ./scripts/bench_snapshot.sh                 # writes BENCH_litmus.json
#   BENCHTIME=2s ./scripts/bench_snapshot.sh    # longer, steadier numbers
#   ./scripts/bench_snapshot.sh out.json        # alternate output path
#
# Captured: the rel word-wise kernels (BenchmarkRelOps), the end-to-end
# candidate enumeration (BenchmarkEnumerate, BenchmarkTheorem1),
# the campaign per-test verdict pipeline (BenchmarkCampaignTest, whose
# tests/s metric is the serial campaign throughput), the tier-up JIT
# on/off pairs (BenchmarkTierUp, whose sim_cycles_per_op ratio is the
# hot-block promotion speedup — exact figures in both modes, not samples:
# promotion happens at a guest dispatch count), and the operational
# exploration engine (BenchmarkExplore: states_per_sec transition
# throughput and the coverage_pct of allowed outcomes a full DPOR
# enumeration reaches).
# BenchmarkEnumerate/heavy (a five-thread ring, tens of ms per enumeration)
# runs at a fixed 3x: three iterations already resolve its cost.
# check.sh runs this with a short -benchtime as a smoke stage; for numbers
# worth comparing across machines use BENCHTIME=2s or more.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-100x}"
OUT="${1:-BENCH_litmus.json}"

raw="$(
  go test -run '^$' -bench 'BenchmarkRelOps' -benchtime "$BENCHTIME" ./internal/rel/
  go test -run '^$' -bench '^BenchmarkEnumerate$|BenchmarkTheorem1|BenchmarkCampaignTest|BenchmarkTierUp|BenchmarkExplore' \
    -skip 'BenchmarkEnumerate/heavy' -benchtime "$BENCHTIME" .
  go test -run '^$' -bench 'BenchmarkEnumerate/heavy' -benchtime 3x .
)"

# Benchmark result lines look like:
#   BenchmarkRelOps/UnionWith   100   349.1 ns/op   0 B/op   0 allocs/op
# Sub-benchmark names (sb3q, UnionWith) are kept verbatim.
awk -v benchtime="$BENCHTIME" '
BEGIN {
  printf "{\n  \"generated_by\": \"scripts/bench_snapshot.sh\",\n"
  printf "  \"benchtime\": \"%s\",\n  \"benchmarks\": [", benchtime
  n = 0
}
$1 ~ /^Benchmark/ && $4 == "ns/op" {
  if (n++) printf ","
  printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s", $1, $3
  for (i = 4; i < NF; i++) {
    if ($(i+1) == "B/op")      printf ", \"bytes_per_op\": %s", $i
    if ($(i+1) == "allocs/op") printf ", \"allocs_per_op\": %s", $i
    if ($(i+1) == "tests/s")   printf ", \"tests_per_sec\": %s", $i
    if ($(i+1) == "simcycles/op") printf ", \"sim_cycles_per_op\": %s", $i
    if ($(i+1) == "xmerges/op")   printf ", \"cross_block_fence_merges\": %s", $i
    if ($(i+1) == "states/s")     printf ", \"states_per_sec\": %s", $i
    if ($(i+1) == "coverage%")    printf ", \"coverage_pct\": %s", $i
  }
  printf "}"
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
END {
  printf "\n  ],\n  \"cpu\": \"%s\"\n}\n", cpu
}' <<<"$raw" >"$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
