// Command benchgate is the benchmark regression gate: it compares a fresh
// BENCH_engine.json (see cmd/benchjson) against a committed baseline and
// fails when a gated latency metric regresses beyond a tolerance.
//
// Usage:
//
//	go run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_engine.json
//
// Because CI machines differ from the machine that produced the baseline,
// raw wall-clock comparison would gate on hardware, not code. Both sides are
// therefore normalized by a reference benchmark measured in the same run —
// by default the CPU time per iteration (cpu_ns/op) of Calibrate, a fixed
// pure-Go kernel that calls no terids code, so no change under test can
// move the reference. The gated quantity is
//
//	median over rounds i of  metric_i / ref_i
//
// i.e. "nanoseconds in units of calibration-kernel nanoseconds", which is
// stable across machine speeds. A report holds several rounds, each one
// sample of every benchmark (scripts/bench_baseline.sh and CI run the
// benchmarks in a loop of -count 1 invocations). Pairing a sample with the
// reference sample of its own round cancels a host that speeds up or slows
// down between rounds; the median drops a round disturbed on one side only.
//
// A -metrics entry is either a metric name, gated on every benchmark that
// reports it, or Benchmark:metric, gated on that benchmark only; the
// default gates the engine's per-arrival latencies and ProcessorBaseline's
// cpu_ns/op, so a slower core operator fails the gate instead of slowing
// the numerator and denominator alike. Pass -ref "" to compare raw values
// instead (only meaningful on identical hardware); raw mode keeps the
// per-metric minimum over rounds, benchstat-style best-of.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
)

// Result and Report mirror cmd/benchjson's output schema.
type Result struct {
	Name    string             `json:"name"`
	Procs   int                `json:"procs,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

type Report struct {
	Results []Result `json:"results"`
}

// samples maps benchmark name → metric → values in report order, so the
// i-th value of every benchmark comes from round i.
type samples map[string]map[string][]float64

// read loads a benchjson report.
func read(path string) (samples, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := samples{}
	for _, r := range rep.Results {
		m := out[r.Name]
		if m == nil {
			m = map[string][]float64{}
			out[r.Name] = m
		}
		for unit, v := range r.Metrics {
			m[unit] = append(m[unit], v)
		}
	}
	return out, nil
}

// load reads a benchjson report and folds repeated benchmark names down to
// the per-metric minimum.
func load(path string) (map[string]map[string]float64, error) {
	s, err := read(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]float64{}
	for name, m := range s {
		out[name] = map[string]float64{}
		for unit, vs := range m {
			out[name][unit] = slices.Min(vs)
		}
	}
	return out, nil
}

// normalize divides each sample by the reference benchmark's sample of the
// same round and folds every metric to the median of those ratios. Rounds
// past the shorter of the two sample lists are ignored.
func (s samples) normalize(refName, refMetric, path string) (map[string]map[string]float64, error) {
	ref := s[refName][refMetric]
	if len(ref) == 0 {
		return nil, fmt.Errorf("%s: reference %q has no %q — cannot normalize", path, refName, refMetric)
	}
	if slices.Min(ref) <= 0 {
		return nil, fmt.Errorf("%s: reference %q has a non-positive %q", path, refName, refMetric)
	}
	out := map[string]map[string]float64{}
	for name, m := range s {
		out[name] = map[string]float64{}
		for unit, vs := range m {
			n := min(len(vs), len(ref))
			ratios := make([]float64, n)
			for i := range ratios {
				ratios[i] = vs[i] / ref[i]
			}
			out[name][unit] = median(ratios)
		}
	}
	return out, nil
}

func median(vs []float64) float64 {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// gateInput loads one side of the comparison: normalized against refName,
// or raw best-of when refName is empty.
func gateInput(path, refName, refMetric string) (map[string]map[string]float64, error) {
	if refName == "" {
		return load(path)
	}
	s, err := read(path)
	if err != nil {
		return nil, err
	}
	return s.normalize(refName, refMetric, path)
}

func run() error {
	var (
		basePath  = flag.String("baseline", "BENCH_baseline.json", "committed baseline report (benchjson schema)")
		curPath   = flag.String("current", "BENCH_engine.json", "freshly measured report to gate")
		metrics   = flag.String("metrics", "ns_per_arrival,batch_ns_per_arrival,ProcessorBaseline:cpu_ns/op", "comma-separated latency metrics to gate (lower is better): metric, or Benchmark:metric for one benchmark only")
		refName   = flag.String("ref", "Calibrate", "reference benchmark used to normalize across machines (\"\" = raw comparison)")
		refMetric = flag.String("ref-metric", "cpu_ns/op", "metric of the reference benchmark")
		maxRegr   = flag.Float64("max-regress", 0.15, "fail when normalized metric exceeds baseline by more than this fraction")
	)
	flag.Parse()

	base, err := gateInput(*basePath, *refName, *refMetric)
	if err != nil {
		return err
	}
	cur, err := gateInput(*curPath, *refName, *refMetric)
	if err != nil {
		return err
	}

	gated := map[string]bool{}
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			gated[m] = true
		}
	}

	rows, failures, compared := compare(base, cur, gated, *maxRegr, *curPath)
	fmt.Printf("%-28s %-26s %12s %12s %8s\n", "benchmark", "metric", "baseline", "current", "delta")
	for _, row := range rows {
		fmt.Println(row)
	}
	if compared == 0 {
		return fmt.Errorf("no gated metrics (%s) found in %s — empty gate would pass vacuously", *metrics, *basePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("gate passed: %d metrics within %.0f%% of baseline (normalized by %s %s)\n",
		compared, *maxRegr*100, *refName, *refMetric)
	return nil
}

// compare evaluates every gated baseline metric against the current report,
// both already normalized (see gateInput). gated holds metric names (gated
// on every benchmark) and Benchmark:metric keys (gated on that benchmark
// only). It returns printable table rows, gate failures (regressions,
// dropped benchmarks, renamed metrics), and how many metrics were actually
// compared.
func compare(base, cur map[string]map[string]float64,
	gated map[string]bool, maxRegr float64, curPath string) (rows, failures []string, compared int) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		units := make([]string, 0, len(base[name]))
		for unit := range base[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := base[name][unit]
			if !(gated[unit] || gated[name+":"+unit]) || bv <= 0 {
				continue
			}
			curMetrics, ok := cur[name]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: present in baseline but missing from %s — benchmark dropped?", name, curPath))
				continue
			}
			cv, ok := curMetrics[unit]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: metric %s missing from %s — metric renamed?", name, unit, curPath))
				continue
			}
			compared++
			delta := cv/bv - 1
			mark := ""
			if delta > maxRegr {
				mark = "  REGRESSION"
				failures = append(failures, fmt.Sprintf("%s %s regressed %.1f%% (limit %.0f%%)",
					name, unit, delta*100, maxRegr*100))
			}
			rows = append(rows, fmt.Sprintf("%-28s %-26s %12.4g %12.4g %+7.1f%%%s",
				name, unit, bv, cv, delta*100, mark))
		}
	}
	return rows, failures, compared
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
