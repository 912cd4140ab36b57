#!/usr/bin/env bash
# Builds terids-serve and the benchmark from source, then runs the
# benchmark with this script's arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload impute_heavy --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache, and per-run server state all stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/terids-serve" ./cmd/terids-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/terids-serve" -work "$out/run" "$@"
