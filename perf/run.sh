#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go build cache, binary, the translation-cache journal) stays in
# .bench_build/ at the root of the checkout.
#
#   bash perf/run.sh --workload hotloop --seed 1 --seconds 10 --trace 0
#   bash perf/run.sh -all            # every workload, both passes, human-readable
#   bash perf/run.sh -repeat 10      # spread of every end-to-end metric vs its bound
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
