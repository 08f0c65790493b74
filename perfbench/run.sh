#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root with the benchmark's flags, e.g.
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
# Build outputs (binary and Go build cache) stay under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
