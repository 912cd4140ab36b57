package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFoldsRepeatsToMin: -count > 1 runs repeat a benchmark name;
// load keeps the per-metric minimum (benchstat-style best-of).
func TestLoadFoldsRepeatsToMin(t *testing.T) {
	path := writeReport(t, t.TempDir(), "r.json", Report{Results: []Result{
		{Name: "EngineShards/4", Metrics: map[string]float64{"ns_per_arrival": 120, "tuples/s": 800}},
		{Name: "EngineShards/4", Metrics: map[string]float64{"ns_per_arrival": 100, "tuples/s": 900}},
		{Name: "EngineShards/4", Metrics: map[string]float64{"ns_per_arrival": 110}},
	}})
	rep, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep["EngineShards/4"]["ns_per_arrival"]; got != 100 {
		t.Fatalf("ns_per_arrival folded to %v, want the minimum 100", got)
	}
	if got := rep["EngineShards/4"]["tuples/s"]; got != 800 {
		t.Fatalf("tuples/s folded to %v, want the minimum 800", got)
	}
}

// TestCompareNormalizedGate: the gate is on the machine-normalized ratio —
// a slower machine (higher reference ns) with proportionally slower engine
// numbers passes, while a true >15% regression fails even when the raw
// numbers look faster.
func TestCompareNormalizedGate(t *testing.T) {
	gated := map[string]bool{"ns_per_arrival": true}
	norm := func(ref, metric float64) map[string]map[string]float64 {
		t.Helper()
		out, err := samples{
			"Calibrate":      {"cpu_ns/op": {ref}},
			"EngineShards/4": {"ns_per_arrival": {metric}},
		}.normalize("Calibrate", "cpu_ns/op", "r.json")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := norm(50, 1000)

	// Same code, machine 2x slower: reference doubles, metric doubles.
	_, failures, compared := compare(base, norm(100, 2000), gated, 0.15, "cur.json")
	if compared != 1 || len(failures) != 0 {
		t.Fatalf("proportional slowdown flagged: compared=%d failures=%v", compared, failures)
	}

	// Machine 2x faster, but the metric only improved 1.5x: a 33% real
	// regression hiding behind better raw numbers.
	_, failures, _ = compare(base, norm(25, 667), gated, 0.15, "cur.json")
	if len(failures) != 1 || !strings.Contains(failures[0], "regressed") {
		t.Fatalf("hidden regression not flagged: %v", failures)
	}

	// Dropped benchmark and renamed metric both fail the gate.
	_, failures, compared = compare(base, map[string]map[string]float64{}, gated, 0.15, "cur.json")
	if compared != 0 || len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("dropped benchmark not flagged: %v", failures)
	}
	renamed := map[string]map[string]float64{"EngineShards/4": {"ns/arrival": 1000}}
	_, failures, _ = compare(base, renamed, gated, 0.15, "cur.json")
	if len(failures) != 1 || !strings.Contains(failures[0], "renamed") {
		t.Fatalf("renamed metric not flagged: %v", failures)
	}
}

// TestCompareQualifiedGate: a Benchmark:metric entry gates that one
// benchmark's metric — ProcessorBaseline cpu_ns/op — and leaves the same
// metric of every other benchmark ungated.
func TestCompareQualifiedGate(t *testing.T) {
	gated := map[string]bool{"ProcessorBaseline:cpu_ns/op": true}
	base := map[string]map[string]float64{
		"ProcessorBaseline": {"cpu_ns/op": 10},
		"SnapshotRoundtrip": {"cpu_ns/op": 10},
	}
	// The core operator 20% slower, everything else unchanged.
	cur := map[string]map[string]float64{
		"ProcessorBaseline": {"cpu_ns/op": 12},
		"SnapshotRoundtrip": {"cpu_ns/op": 50},
	}
	_, failures, compared := compare(base, cur, gated, 0.15, "cur.json")
	if compared != 1 || len(failures) != 1 || !strings.HasPrefix(failures[0], "ProcessorBaseline cpu_ns/op regressed") {
		t.Fatalf("compared=%d failures=%v; want only ProcessorBaseline cpu_ns/op gated and failing", compared, failures)
	}
}

// TestNormalize: every sample is divided by the reference sample of its own
// round and the ratios fold to their median, so a round in which the host
// ran slow on one side only cannot move the result. A missing or
// non-positive reference is a hard error — a silently absent normalizer
// would turn the gate into a raw comparison.
func TestNormalize(t *testing.T) {
	s := samples{
		"Calibrate": {"cpu_ns/op": {100, 200, 100}},
		// Rounds 1 and 2: the host ran 2x slow on both sides. Round 3:
		// only the engine was disturbed.
		"EngineShards/4": {"ns_per_arrival": {300, 600, 900}},
	}
	out, err := s.normalize("Calibrate", "cpu_ns/op", "r.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := out["EngineShards/4"]["ns_per_arrival"]; got != 3 {
		t.Fatalf("normalized = %v, want the median per-round ratio 3", got)
	}
	if _, err := s.normalize("Gone", "cpu_ns/op", "r.json"); err == nil {
		t.Fatal("missing reference benchmark accepted")
	}
	if _, err := s.normalize("Calibrate", "ns/op", "r.json"); err == nil {
		t.Fatal("missing reference metric accepted")
	}
	zero := samples{"Calibrate": {"cpu_ns/op": {100, 0}}}
	if _, err := zero.normalize("Calibrate", "cpu_ns/op", "r.json"); err == nil {
		t.Fatal("non-positive reference accepted")
	}
}
