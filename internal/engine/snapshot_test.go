package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"terids/internal/core"
	"terids/internal/snapshot"
	"terids/internal/testutil"
)

// collectResults wires an engine result sink indexed by sequence number.
type collector struct {
	mu    sync.Mutex
	pairs map[int64][]core.Pair
}

func newCollector() *collector { return &collector{pairs: make(map[int64][]core.Pair)} }

func (c *collector) onResult(res Result) {
	c.mu.Lock()
	c.pairs[res.Seq] = res.Pairs
	c.mu.Unlock()
}

// roundtrip pushes a checkpoint through the binary format, as a restart
// across processes would.
func roundtrip(t *testing.T, c *snapshot.Checkpoint) *snapshot.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

// TestCrashRestoreEquivalence is the crash/restore property test of the
// checkpoint contract: process some prefix of the stream, barrier-checkpoint
// at a pseudo-random mid-stream point, restore into a completely fresh
// engine — including restores at a different shard count K→K' — and the
// combined output (prefix from the first engine, suffix from the restored
// one) must be byte-identical to an uninterrupted core.Processor run: same
// pairs, same order, same probabilities, same final entity set. Run under
// -race in CI.
func TestCrashRestoreEquivalence(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)

	// Seeded: deterministic in CI, but midpoints vary across the reshard
	// cases so cut points land in different window/grid phases.
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name  string
		k, k2 int
	}{
		{"K=2 resumed at K=2", 2, 2},
		{"K=1 resharded to K=4", 1, 4},
		{"K=4 resharded to K=1", 4, 1},
		{"K=3 resharded to K=8", 3, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mid := 1 + rng.Intn(n-2)

			first := newCollector()
			eng, err := New(f.sh, Config{Core: f.cfg, Shards: tc.k, OnResult: first.onResult})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range f.stream[:mid] {
				if err := eng.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			// Barrier checkpoint on the live engine (the "crash" happens
			// after it: the first engine is simply abandoned).
			c, err := eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if c.Seq != int64(mid) {
				t.Fatalf("checkpoint watermark %d, want %d", c.Seq, mid)
			}
			if c.Shards != tc.k {
				t.Fatalf("checkpoint records K=%d, want %d", c.Shards, tc.k)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			second := newCollector()
			eng2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: tc.k2, OnResult: second.onResult}, roundtrip(t, c))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range f.stream[mid:] {
				if err := eng2.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng2.Close(); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < n; i++ {
				got, ok := first.pairs[int64(i)]
				if i >= mid {
					got, ok = second.pairs[int64(i)]
				}
				if !ok {
					t.Fatalf("arrival %d never finalized (mid=%d)", i, mid)
				}
				if !samePairs(wantPerArrival[i], got) {
					t.Fatalf("arrival %d (mid=%d, K=%d→%d): got %v, reference %v",
						i, mid, tc.k, tc.k2, got, wantPerArrival[i])
				}
			}
			if !samePairs(wantFinal, eng2.ResultSet()) {
				t.Fatalf("final entity set differs after restore (mid=%d, K=%d→%d)", mid, tc.k, tc.k2)
			}
			st := eng2.Stats()
			if st.Submitted != int64(n) || st.Completed != int64(n) {
				t.Fatalf("restored engine submitted=%d completed=%d, want %d", st.Submitted, st.Completed, n)
			}
		})
	}
}

// TestCrashRestoreTimeWindows covers the time-based window variant: the
// engine checkpoint must capture the per-stream time windows (the clock is
// re-derived from the residents) and restore them exactly.
func TestCrashRestoreTimeWindows(t *testing.T) {
	f := loadFixture(t)
	cfg := f.cfg
	cfg.TimeSpan = 40

	proc, err := core.NewProcessor(f.sh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]core.Pair, len(f.stream))
	for i, r := range f.stream {
		pairs, err := proc.Advance(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pairs
	}

	mid := len(f.stream) / 3
	eng, err := New(f.sh, Config{Core: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:mid] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	col := newCollector()
	eng2, err := NewFromSnapshot(f.sh, Config{Core: cfg, Shards: 3, OnResult: col.onResult}, roundtrip(t, c))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[mid:] {
		if err := eng2.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	for i := mid; i < len(f.stream); i++ {
		if !samePairs(want[i], col.pairs[int64(i)]) {
			t.Fatalf("time-window arrival %d diverged after restore", i)
		}
	}
	if !samePairs(proc.Results().Pairs(), eng2.ResultSet()) {
		t.Fatal("time-window final entity sets differ after restore")
	}
}

// TestCheckpointBarrierIsNonDisruptive: checkpointing a running engine and
// then continuing on the SAME engine must not perturb its output.
func TestCheckpointBarrierIsNonDisruptive(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)

	col := newCollector()
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 4, OnResult: col.onResult})
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for i, r := range f.stream {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
		if i%97 == 13 {
			c, err := eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if c.Seq != int64(i+1) {
				t.Fatalf("mid-run checkpoint at seq %d, want %d", c.Seq, i+1)
			}
			checkpoints++
		}
	}
	if checkpoints == 0 {
		t.Fatal("no mid-run checkpoints exercised")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range wantPerArrival {
		if !samePairs(wantPerArrival[i], col.pairs[int64(i)]) {
			t.Fatalf("arrival %d: output perturbed by mid-run checkpoints", i)
		}
	}
	if !samePairs(wantFinal, eng.ResultSet()) {
		t.Fatal("final entity set perturbed by mid-run checkpoints")
	}
}

// TestCheckpointConcurrentWithSubmissions drives the barrier from a separate
// goroutine while a submitter floods the queue — deadlock-freedom and
// watermark consistency under -race.
func TestCheckpointConcurrentWithSubmissions(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 3, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, r := range f.stream {
			if err := eng.Submit(r); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		c, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.Seq > int64(len(f.stream)) {
			t.Fatalf("checkpoint watermark %d beyond stream length %d", c.Seq, len(f.stream))
		}
	}
	<-done
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAfterClose: a drained, closed engine stays checkpointable —
// the graceful-shutdown path (close, then write the final checkpoint).
func TestCheckpointAfterClose(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != int64(len(f.stream)) {
		t.Fatalf("final checkpoint at seq %d, want %d", c.Seq, len(f.stream))
	}

	// The checkpoint restores into a single-threaded Processor too: cross-
	// layer portability of the format.
	proc, err := core.NewProcessorFromSnapshot(f.sh, f.cfg, roundtrip(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(eng.ResultSet(), proc.Results().Pairs()) {
		t.Fatal("entity set differs after restoring an engine checkpoint into a Processor")
	}
}

// TestProcessorCheckpointIntoEngine is the reverse cross-layer path: a
// single-threaded Processor's snapshot seeds a K-sharded engine, which then
// continues the stream identically to the uninterrupted reference.
func TestProcessorCheckpointIntoEngine(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	mid := 2 * len(f.stream) / 3

	proc, err := core.NewProcessor(f.sh, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:mid] {
		if _, err := proc.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := proc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	col := newCollector()
	eng, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: 4, OnResult: col.onResult}, roundtrip(t, c))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[mid:] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := mid; i < len(f.stream); i++ {
		if !samePairs(wantPerArrival[i], col.pairs[int64(i)]) {
			t.Fatalf("arrival %d: engine-from-processor-snapshot diverged", i)
		}
	}
	if !samePairs(wantFinal, eng.ResultSet()) {
		t.Fatal("final entity set differs after Processor→engine restore")
	}
}

// TestRestoreRejectsMismatchedConfig mirrors the core-level guard at the
// engine layer.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:30] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	bad := f.cfg
	bad.WindowSize = 49
	if _, err := NewFromSnapshot(f.sh, Config{Core: bad, Shards: 2}, c); err == nil {
		t.Fatal("NewFromSnapshot accepted a mismatched window size")
	}
}

// TestAdoptionCapsShardCount: a tampered checkpoint claiming a huge shard
// count must not make an auto-sizing restore (Shards=0) spawn that many
// shard workers — CRC protects integrity, not authenticity.
func TestAdoptionCapsShardCount(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:20] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Tamper: an absurd shard count.
	c.Shards = 100000
	e2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: 0}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Stats().Shards; got > maxAdoptShards {
		t.Fatalf("restore adopted K=%d from a tampered checkpoint, cap is %d", got, maxAdoptShards)
	}
}

// TestRestoreFromCheckpointWithShardSlots: checkpoints written by builds with the
// shard rebalancer carry a 256-entry slot table — a full checkpoint and the
// deltas chained on it. Both must restore to an engine whose state
// re-encodes byte-identically to the table-free checkpoint and whose
// continued output matches the uninterrupted reference.
func TestRestoreFromCheckpointWithShardSlots(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)
	q1, q2 := n/3, 2*n/3

	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []*snapshot.Checkpoint
	for _, span := range [][2]int{{0, q1}, {q1, q2}} {
		for _, r := range f.stream[span[0]:span[1]] {
			if err := eng.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		c, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, c)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	encode := func(c *snapshot.Checkpoint) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := snapshot.Encode(&buf, c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base, err := snapshot.Decode(bytes.NewReader(testutil.WithShardSlots(t, encode(ckpts[0]), 2)))
	if err != nil {
		t.Fatalf("full checkpoint with slot table: %v", err)
	}
	d, err := snapshot.ComputeDelta(ckpts[0], ckpts[1])
	if err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	if err := snapshot.EncodeDelta(&dbuf, d); err != nil {
		t.Fatal(err)
	}
	legacyDelta, err := snapshot.DecodeDelta(bytes.NewReader(testutil.WithShardSlots(t, dbuf.Bytes(), 2)))
	if err != nil {
		t.Fatalf("delta with slot table: %v", err)
	}
	head, err := snapshot.ApplyDelta(base, legacyDelta)
	if err != nil {
		t.Fatal(err)
	}

	for i, c := range []*snapshot.Checkpoint{base, head} {
		want := ckpts[i]
		col := newCollector()
		e2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: 2, OnResult: col.onResult}, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("restore %d: engine state differs from the checkpoint it was restored from", i)
		}
		for _, r := range f.stream[want.Seq:] {
			if err := e2.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
		for s := want.Seq; s < int64(n); s++ {
			if !samePairs(wantPerArrival[s], col.pairs[s]) {
				t.Fatalf("restore %d: arrival %d diverged from the reference", i, s)
			}
		}
		if !samePairs(wantFinal, e2.ResultSet()) {
			t.Fatalf("restore %d: final entity set differs from the reference", i)
		}
	}
}
