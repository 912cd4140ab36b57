// Package bench holds one testing.B benchmark per table and figure of the
// paper's evaluation section (plus the ablation studies). Each benchmark
// regenerates its experiment end to end at a reduced scale; cmd/terids-bench
// produces the full-scale reports (`terids-bench -list` names every
// experiment).
package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/engine"
	"terids/internal/experiments"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// benchParams shrinks the workload so `go test -bench=.` stays tractable
// while still exercising every moving part.
func benchParams(datasets ...string) experiments.Params {
	p := experiments.DefaultParams()
	p.Scale = 0.25
	p.W = 60
	p.MaxStream = 160
	if len(datasets) == 0 {
		datasets = []string{"Citations"}
	}
	p.Datasets = datasets
	return p
}

func runExperiment(b *testing.B, id string, p experiments.Params) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, p); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable4DatasetStats regenerates Table 4 (dataset statistics).
func BenchmarkTable4DatasetStats(b *testing.B) {
	runExperiment(b, "table4", benchParams())
}

// BenchmarkTable5ParameterGrid regenerates Table 5 (parameter settings).
func BenchmarkTable5ParameterGrid(b *testing.B) {
	runExperiment(b, "table5", benchParams())
}

// BenchmarkFig4PruningPower regenerates Figure 4 (per-strategy pruning
// power).
func BenchmarkFig4PruningPower(b *testing.B) {
	runExperiment(b, "fig4", benchParams())
}

// BenchmarkFig5aFScore regenerates Figure 5(a) (F-score per method).
func BenchmarkFig5aFScore(b *testing.B) {
	runExperiment(b, "fig5a", benchParams())
}

// BenchmarkFig5bWallClock regenerates Figure 5(b) (wall clock per method).
func BenchmarkFig5bWallClock(b *testing.B) {
	runExperiment(b, "fig5b", benchParams())
}

// BenchmarkFig6Breakdown regenerates Figure 6 (TER-iDS cost breakdown).
func BenchmarkFig6Breakdown(b *testing.B) {
	runExperiment(b, "fig6", benchParams())
}

// BenchmarkFig7Alpha regenerates Figure 7 (efficiency vs α).
func BenchmarkFig7Alpha(b *testing.B) {
	runExperiment(b, "fig7", benchParams())
}

// BenchmarkFig8Rho regenerates Figure 8 (efficiency vs ρ = γ/d).
func BenchmarkFig8Rho(b *testing.B) {
	runExperiment(b, "fig8", benchParams())
}

// BenchmarkFig9MissingRate regenerates Figure 9 (efficiency vs ξ).
func BenchmarkFig9MissingRate(b *testing.B) {
	runExperiment(b, "fig9", benchParams())
}

// BenchmarkFig10Window regenerates Figure 10 (efficiency vs w).
func BenchmarkFig10Window(b *testing.B) {
	runExperiment(b, "fig10", benchParams())
}

// BenchmarkFig11aPivotEta regenerates Figure 11(a) (pivot selection cost vs
// η).
func BenchmarkFig11aPivotEta(b *testing.B) {
	runExperiment(b, "fig11a", benchParams())
}

// BenchmarkFig11bPivotCntMax regenerates Figure 11(b) (pivot selection cost
// vs cntMax).
func BenchmarkFig11bPivotCntMax(b *testing.B) {
	runExperiment(b, "fig11b", benchParams())
}

// BenchmarkFig12CDDDetect regenerates Figure 12 (offline CDD detection
// cost).
func BenchmarkFig12CDDDetect(b *testing.B) {
	runExperiment(b, "fig12", benchParams())
}

// BenchmarkFig13FScoreXi regenerates Figure 13 (F-score vs ξ).
func BenchmarkFig13FScoreXi(b *testing.B) {
	p := benchParams()
	p.MaxStream = 100
	runExperiment(b, "fig13", p)
}

// BenchmarkFig14FScoreEta regenerates Figure 14 (F-score vs η).
func BenchmarkFig14FScoreEta(b *testing.B) {
	p := benchParams()
	p.MaxStream = 100
	runExperiment(b, "fig14", p)
}

// BenchmarkFig15FScoreM regenerates Figure 15 (F-score vs m).
func BenchmarkFig15FScoreM(b *testing.B) {
	p := benchParams()
	p.MaxStream = 100
	runExperiment(b, "fig15", p)
}

// BenchmarkFig16TimeEta regenerates Figure 16 (efficiency vs η).
func BenchmarkFig16TimeEta(b *testing.B) {
	p := benchParams()
	p.MaxStream = 100
	runExperiment(b, "fig16", p)
}

// BenchmarkFig17TimeM regenerates Figure 17 (efficiency vs m).
func BenchmarkFig17TimeM(b *testing.B) {
	p := benchParams()
	p.MaxStream = 100
	runExperiment(b, "fig17", p)
}

// BenchmarkAblationPruning measures TER-iDS with each pruning strategy
// disabled (design-choice ablation; results identical, cost moves).
func BenchmarkAblationPruning(b *testing.B) {
	runExperiment(b, "ablation-pruning", benchParams())
}

// BenchmarkAblationPivot compares entropy-selected pivots against naive
// first-value pivots (the Section 5.4 design choice).
func BenchmarkAblationPivot(b *testing.B) {
	runExperiment(b, "ablation-pivot", benchParams())
}

// engineFixture caches one dataset + offline state for the engine
// throughput benchmarks, so iterations measure only the online phase.
type engineFixture struct {
	sh     *core.Shared
	cfg    core.Config
	stream []*tuple.Record
}

var (
	engineFixOnce sync.Once
	engineFix     engineFixture
	engineFixErr  error
)

func loadEngineFixture(b *testing.B) engineFixture {
	b.Helper()
	engineFixOnce.Do(func() {
		prof, err := dataset.ProfileByName("Citations")
		if err != nil {
			engineFixErr = err
			return
		}
		data, err := dataset.Generate(prof, dataset.Options{
			Scale: 1, MissingRate: 0.3, MissingAttrs: 1, RepoRatio: 0.5, Seed: 1,
		})
		if err != nil {
			engineFixErr = err
			return
		}
		sh, err := core.Prepare(data.Repo, core.DefaultPrepareConfig(data.Keywords))
		if err != nil {
			engineFixErr = err
			return
		}
		engineFix = engineFixture{
			sh: sh,
			cfg: core.Config{
				Keywords:   data.Keywords,
				Gamma:      0.5 * float64(data.Schema.D()),
				Alpha:      0.5,
				WindowSize: 200,
				Streams:    2,
			},
			stream: data.Stream,
		}
	})
	if engineFixErr != nil {
		b.Fatalf("engine fixture: %v", engineFixErr)
	}
	return engineFix
}

// calibrateSink keeps BenchmarkCalibrate's result observable.
var calibrateSink int

// reportCPU publishes cpu_ns/op: CPU time per iteration since start. On a
// shared host it is far steadier than wall-clock ns/op, because time the
// process spends descheduled does not count.
func reportCPU(b *testing.B, start time.Duration) {
	b.ReportMetric(float64(cpuTime(b)-start)/float64(b.N), "cpu_ns/op")
}

// BenchmarkCalibrate is the benchmark gate's machine-speed reference
// (cmd/benchgate -ref): a fixed pure-Go kernel that fills two slices from a
// xorshift generator, sorts them and merge-scans their intersection. It
// calls no terids code, so no change under test can move it, and its
// sort-and-compare shape tracks the CPU and cache speed the gated
// benchmarks depend on.
func BenchmarkCalibrate(b *testing.B) {
	const n = 1 << 17
	xs, ys := make([]uint32, n), make([]uint32, n)
	start := cpuTime(b)
	for i := 0; i < b.N; i++ {
		x := uint32(2463534242)
		for _, s := range [][]uint32{xs, ys} {
			for j := range s {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				s[j] = x % (4 * n)
			}
			slices.Sort(s)
		}
		common := 0
		for j, k := 0, 0; j < n && k < n; {
			switch {
			case xs[j] == ys[k]:
				common++
				j++
				k++
			case xs[j] < ys[k]:
				j++
			default:
				k++
			}
		}
		calibrateSink = common
	}
	reportCPU(b, start)
}

// BenchmarkProcessorBaseline is the single-threaded tuples/sec reference
// the engine benchmarks are compared against.
func BenchmarkProcessorBaseline(b *testing.B) {
	f := loadEngineFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := cpuTime(b)
	for i := 0; i < b.N; i++ {
		proc, err := core.NewProcessor(f.sh, f.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.stream {
			if _, err := proc.Advance(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportCPU(b, start)
	b.ReportMetric(float64(b.N*len(f.stream))/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkSnapshotRoundtrip measures the checkpoint subsystem end to end:
// barrier-checkpoint a loaded engine, encode to the binary format, decode,
// and rebuild a fresh engine from it. It reports the checkpoint size
// (ckpt_bytes) alongside the roundtrip latency, so the perf trajectory of
// both restore cost and on-disk footprint is tracked PR-over-PR.
func BenchmarkSnapshotRoundtrip(b *testing.B) {
	f := loadEngineFixture(b)
	eng, err := engine.New(f.sh, engine.Config{Core: f.cfg, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, r := range f.stream {
		if err := eng.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
	// Drain before timing: the first Checkpoint otherwise waits out the
	// whole submitted stream and the b.N=1 CI smoke run would measure
	// engine throughput instead of the snapshot roundtrip.
	if _, err := eng.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	var bytesOut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snapshot.Encode(&buf, c); err != nil {
			b.Fatal(err)
		}
		bytesOut = buf.Len()
		c2, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		restored, err := engine.NewFromSnapshot(f.sh, engine.Config{Core: f.cfg, Shards: 4}, c2)
		if err != nil {
			b.Fatal(err)
		}
		if err := restored.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bytesOut), "ckpt_bytes")
}

// BenchmarkWALAppend measures the durable ingest path's write-ahead log
// append under group commit: parallel appenders reserve strictly ordered
// slots (as engine submissions do under the submission lock) and then wait
// for durability together, sharing fsyncs. Reports appends/s and the
// on-disk bytes per entry.
func BenchmarkWALAppend(b *testing.B) {
	l, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	values := []string{"an incomplete stream tuple", "-", "topic-aware entity resolution", "sigmod"}
	var mu sync.Mutex
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			seq := next
			next++
			tk, err := l.Reserve(wal.Entry{
				Seq: seq, RID: fmt.Sprintf("r%d", seq), Stream: int(seq % 4),
				TupleSeq: seq, EntityID: -1, Values: values,
			}, true)
			mu.Unlock()
			if err != nil {
				panic(err)
			}
			if err := tk.Wait(); err != nil {
				panic(err)
			}
		}
	})
	b.StopTimer()
	st := l.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
	if st.NextSeq > 0 {
		b.ReportMetric(float64(st.Bytes)/float64(st.NextSeq), "diskB/entry")
	}
}

// BenchmarkRecovery measures crash recovery end to end: restore the
// mid-stream snapshot, then replay the WAL suffix (half the stream) through
// the full pipeline. Reports replayed tuples/s — the number that, against
// -checkpoint-interval, bounds restart time.
func BenchmarkRecovery(b *testing.B) {
	f := loadEngineFixture(b)
	dir := b.TempDir()
	d, err := engine.OpenDurable(f.sh, engine.Config{Core: f.cfg, Shards: 4},
		engine.DurableConfig{Dir: dir, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	mid := len(f.stream) / 2
	for i, r := range f.stream {
		if err := d.Eng.Submit(r); err != nil {
			b.Fatal(err)
		}
		if i+1 == mid {
			if _, err := d.CheckpointNow(); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Close without a final checkpoint: the directory now holds a snapshot
	// at mid plus a WAL to the end — a crash image every iteration recovers.
	if err := d.Close(false); err != nil {
		b.Fatal(err)
	}
	replayed := len(f.stream) - mid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d2, err := engine.OpenDurable(f.sh, engine.Config{Core: f.cfg, Shards: 4},
			engine.DurableConfig{Dir: dir, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := d2.Close(false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*replayed)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkDeltaCheckpoint measures the incremental-checkpoint path against
// its full-snapshot equivalent: compute the v3 delta between two barrier
// checkpoints 50 arrivals apart, encode it, decode it, and apply it back
// onto the base. Reports the delta's wire size (delta_bytes) next to the
// full checkpoint's (full_bytes) — the on-disk saving that makes frequent
// checkpointing cheap.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	f := loadEngineFixture(b)
	eng, err := engine.New(f.sh, engine.Config{Core: f.cfg, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	cut := len(f.stream) - 50
	for _, r := range f.stream[:cut] {
		if err := eng.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
	base, err := eng.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range f.stream[cut:] {
		if err := eng.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
	cur, err := eng.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	var fullBuf bytes.Buffer
	if err := snapshot.Encode(&fullBuf, cur); err != nil {
		b.Fatal(err)
	}
	var deltaBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := snapshot.ComputeDelta(base, cur)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snapshot.EncodeDelta(&buf, d); err != nil {
			b.Fatal(err)
		}
		deltaBytes = buf.Len()
		d2, err := snapshot.DecodeDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snapshot.ApplyDelta(base, d2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(deltaBytes), "delta_bytes")
	b.ReportMetric(float64(fullBuf.Len()), "full_bytes")
}

// BenchmarkDeepReplay measures WAL-backed result regeneration end to end:
// a throwaway engine restored at the replay base re-runs the whole logged
// stream through the full pipeline, exactly what serves a /results?from=
// cursor that fell behind the in-memory ring. Reports regenerated tuples/s —
// the number that bounds how far behind a consumer can fall and still catch
// up.
func BenchmarkDeepReplay(b *testing.B) {
	f := loadEngineFixture(b)
	d, err := engine.OpenDurable(f.sh, engine.Config{Core: f.cfg, Shards: 4},
		engine.DurableConfig{Dir: b.TempDir(), NoSync: true, DeltaEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close(false)
	for i, r := range f.stream {
		if err := d.Eng.Submit(r); err != nil {
			b.Fatal(err)
		}
		if (i+1)%(len(f.stream)/4) == 0 {
			if _, err := d.CheckpointNow(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := d.Eng.Checkpoint(); err != nil { // barrier = drain
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := d.DeepReplay(context.Background(), 0, 0, 0, func(engine.Result) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != len(f.stream) {
			b.Fatalf("deep replay regenerated %d results, want %d", n, len(f.stream))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(f.stream))/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkEngineShards measures sharded engine throughput at K ∈
// {1, 2, 4, 8} over the same stream as BenchmarkProcessorBaseline, giving
// future PRs a perf trajectory to track. On a 4+ core runner K=4 should
// deliver ≥ 2× the baseline's tuples/s; on fewer cores the pipeline only
// breaks even against channel overhead.
// mallocs snapshots the process-wide cumulative allocation count. Deltas
// around a timed loop capture concurrent pipeline goroutines' allocations
// too — which b.ReportAllocs (current-goroutine only under RunParallel, but
// whole-process here) also reflects; the explicit metric feeds
// BENCH_engine.json regardless of -benchmem.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runEngineStream drives one fresh engine through the fixture stream in
// batches of bs and returns the allocations attributed to the timed region
// (submission through drain; engine construction happens with the timer
// stopped). The process-wide Mallocs delta captures the pipeline goroutines'
// allocations, not just this one's.
func runEngineStream(b *testing.B, f engineFixture, k, bs int) uint64 {
	b.StopTimer()
	eng, err := engine.New(f.sh, engine.Config{Core: f.cfg, Shards: k})
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	a0 := mallocs()
	for off := 0; off < len(f.stream); off += bs {
		end := off + bs
		if end > len(f.stream) {
			end = len(f.stream)
		}
		if err := eng.SubmitBatch(f.stream[off:end]); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	return mallocs() - a0
}

func BenchmarkEngineShards(b *testing.B) {
	f := loadEngineFixture(b)
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var allocs uint64
			for i := 0; i < b.N; i++ {
				allocs += runEngineStream(b, f, k, 64)
			}
			b.StopTimer()
			arrivals := float64(b.N * len(f.stream))
			b.ReportMetric(arrivals/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arrivals, "ns_per_arrival")
			b.ReportMetric(float64(allocs)/arrivals, "allocs_per_arrival")
		})
	}
}

// BenchmarkSubmitBatch measures the batched hot path end to end at K=4
// across batch sizes (1 = the single-Submit path). batch_ns_per_arrival and
// batch_allocs_per_arrival land in BENCH_engine.json; the per-batch
// amortization of the submission lock and channel hops should make both fall
// as the batch grows.
func BenchmarkSubmitBatch(b *testing.B) {
	f := loadEngineFixture(b)
	for _, bs := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprint(bs), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var allocs uint64
			for i := 0; i < b.N; i++ {
				allocs += runEngineStream(b, f, 4, bs)
			}
			b.StopTimer()
			arrivals := float64(b.N * len(f.stream))
			b.ReportMetric(arrivals/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arrivals, "batch_ns_per_arrival")
			b.ReportMetric(float64(allocs)/arrivals, "batch_allocs_per_arrival")
		})
	}
}

// BenchmarkInstrumentedSubmit quantifies the observability tax: the same
// stream runs once through an instrumented engine (ns/op, tuples/s — the
// timed measurement) and once with Config.ObsOff, and the per-arrival
// difference is reported as obs_overhead_ns. CI publishes it into
// BENCH_engine.json so the cost of each new instrument is tracked
// PR-over-PR; noise can drive small values slightly negative.
func BenchmarkInstrumentedSubmit(b *testing.B) {
	f := loadEngineFixture(b)
	run := func(b *testing.B, cfg engine.Config) {
		eng, err := engine.New(f.sh, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.stream {
			if err := eng.Submit(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A private registry per iteration: the default-instrumented path,
		// without cross-benchmark accumulation in obs.Default().
		run(b, engine.Config{Core: f.cfg, Shards: 4, Obs: obs.NewRegistry()})
	}
	b.StopTimer()
	instrumented := b.Elapsed()

	baselineStart := time.Now()
	for i := 0; i < b.N; i++ {
		run(b, engine.Config{Core: f.cfg, Shards: 4, ObsOff: true})
	}
	baseline := time.Since(baselineStart)

	arrivals := float64(b.N * len(f.stream))
	b.ReportMetric(float64(instrumented-baseline)/arrivals, "obs_overhead_ns")
	b.ReportMetric(arrivals/instrumented.Seconds(), "tuples/s")
}
