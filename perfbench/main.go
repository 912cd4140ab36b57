// Command perfbench is the repository's benchmark. For one workload it
// boots the real terids-serve, drives it over loopback HTTP from this one
// client process, checks every result against the in-process core.Processor
// reference, and prints the end-to-end metrics (-trace 0). With -trace 1 it
// instead drives the layers' public functions in process, records spans
// around each call, and prints the per-layer metrics.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload impute_heavy --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
)

type runConfig struct {
	serverBin string
	dir       string // this run's private scratch directory
	traceFile string // where the traced run writes its spans
	seconds   float64
	trace     bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result line.
type outcome struct {
	ok        bool
	attempted int
	failed    int
	names     []string
	metrics   map[string]metric
}

func (o *outcome) add(name string, value float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.names = append(o.names, name)
	o.metrics[name] = metric{value, unit}
}

func main() {
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix("perfbench: ")
	var (
		name      = flag.String("workload", "", "workload name (see RATIONALE.md)")
		seed      = flag.Int64("seed", 1, "generation seed, also passed to terids-serve -seed")
		secs      = flag.Float64("seconds", 20, "measured seconds per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics through terids-serve; 1: traced per-layer run")
		serverBin = flag.String("server", "", "terids-serve binary")
		work      = flag.String("work", ".bench_build/run", "scratch root for server state")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *serverBin == "" || *secs <= 0 || (*trace != 0 && *trace != 1) {
		log.Fatal("need -server, -seconds > 0 and -trace 0 or 1")
	}
	dir := filepath.Join(*work, wl.name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	traces := filepath.Join(filepath.Dir(*work), "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		log.Fatal(err)
	}
	cfg := runConfig{
		serverBin: *serverBin, dir: dir, seconds: *secs, trace: *trace == 1,
		traceFile: filepath.Join(traces, fmt.Sprintf("%s-seed%d.ndjson", wl.name, *seed)),
	}
	out, err := run(cfg, wl, *seed)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		log.Printf("removing %s: %v", dir, rmErr)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range out.names {
		log.Printf("%-36s %14.4f %s", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct": out.ok && out.failed == 0, "attempted": out.attempted, "failed": out.failed,
		"metrics": out.metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

func run(cfg runConfig, wl workload, seed int64) (*outcome, error) {
	if !cfg.trace {
		return endToEnd(cfg, wl, seed)
	}
	// The traced run measures the run's first dataset.
	in, err := newInputs(wl, datasetSeed(wl, seed, 0))
	if err != nil {
		return nil, err
	}
	return traced(cfg, in)
}
