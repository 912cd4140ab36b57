#!/usr/bin/env sh
# Regenerate BENCH_baseline.json, the committed floor for the CI benchmark
# regression gate (cmd/benchgate). Run this — and commit the result — when a
# PR intentionally shifts engine latency, so the gate tracks the new floor
# instead of failing every subsequent build.
#
# The gate normalizes by the Calibrate kernel, so the baseline does not need
# to be produced on CI-class hardware — any quiet machine works.
set -eu
cd "$(dirname "$0")/.."
# Five rounds of one sample each, rather than -count 5: benchgate divides
# every sample by the Calibrate sample of its own round, so a quiet or busy
# spell on the host moves both sides of the ratio alike.
out=$(for round in 1 2 3 4 5; do
	go test -run xxx -bench 'Calibrate|ProcessorBaseline|EngineShards|SubmitBatch' \
		-benchtime 3x -count 1 -timeout 30m . || exit 1
done)
printf '%s\n' "$out"
printf '%s\n' "$out" | go run ./cmd/benchjson > BENCH_baseline.json
echo "wrote BENCH_baseline.json"
