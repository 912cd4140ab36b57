package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// submitInBatches drives the whole fixture stream through SubmitBatch in
// fixed-size slices.
func submitInBatches(t *testing.T, eng *Engine, f fixture, bs int) {
	t.Helper()
	for off := 0; off < len(f.stream); off += bs {
		end := off + bs
		if end > len(f.stream) {
			end = len(f.stream)
		}
		if err := eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitBatchMatchesSingle is the batched-path equivalence property:
// for K ∈ {1, 4, 8} and several batch sizes (including ones that straddle
// the stream length unevenly), SubmitBatch produces per-arrival output and a
// final entity set byte-identical to the single-threaded reference — and
// therefore to the single-Submit path, which is checked against the same
// reference in TestEngineMatchesProcessor. Run under -race in CI.
func TestSubmitBatchMatchesSingle(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)

	for _, k := range []int{1, 4, 8} {
		for _, bs := range []int{3, 64, 500} {
			t.Run(fmt.Sprintf("K=%d/batch=%d", k, bs), func(t *testing.T) {
				col := newCollector()
				eng, err := New(f.sh, Config{Core: f.cfg, Shards: k, OnResult: col.onResult})
				if err != nil {
					t.Fatal(err)
				}
				submitInBatches(t, eng, f, bs)
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				for i := range wantPerArrival {
					pairs, ok := col.pairs[int64(i)]
					if !ok {
						t.Fatalf("arrival %d never finalized", i)
					}
					if !samePairs(wantPerArrival[i], pairs) {
						t.Fatalf("arrival %d (%s): K=%d batch=%d emitted %v, processor %v",
							i, f.stream[i].RID, k, bs, pairs, wantPerArrival[i])
					}
				}
				if !samePairs(wantFinal, eng.ResultSet()) {
					t.Fatalf("final entity set differs at K=%d batch=%d", k, bs)
				}
				if st := eng.Stats(); st.Completed != int64(len(f.stream)) {
					t.Fatalf("completed %d arrivals, submitted %d", st.Completed, len(f.stream))
				}
			})
		}
	}
}

// TestSubmitBatchCheckpointMidStream interleaves batched submission with a
// mid-stream Checkpoint barrier; output must stay byte-identical to the
// uninterrupted reference.
func TestSubmitBatchCheckpointMidStream(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	half := len(f.stream) / 2

	col := newCollector()
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2, OnResult: col.onResult})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < half; off += 16 {
		end := off + 16
		if end > half {
			end = half
		}
		if err := eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != int64(half) {
		t.Fatalf("mid-stream checkpoint at seq %d, want %d", c.Seq, half)
	}
	for off := half; off < len(f.stream); off += 16 {
		end := off + 16
		if end > len(f.stream) {
			end = len(f.stream)
		}
		if err := eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range wantPerArrival {
		pairs, ok := col.pairs[int64(i)]
		if !ok {
			t.Fatalf("arrival %d never finalized across the checkpoint", i)
		}
		if !samePairs(wantPerArrival[i], pairs) {
			t.Fatalf("arrival %d: got %v, reference %v", i, pairs, wantPerArrival[i])
		}
	}
	if !samePairs(wantFinal, eng.ResultSet()) {
		t.Fatal("final entity set differs after mid-stream checkpoint")
	}
}

// TestSubmitBatchCrashRecovery crash-recovers a WAL written entirely by
// batched submits: kill mid-stream (directory clone), recover at a different
// K, finish with batched submits, and require byte-identical output — the
// recovery replay itself runs through SubmitBatch.
func TestSubmitBatchCrashRecovery(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)
	kill := 2 * n / 3
	ckptAt := n / 4

	dir := t.TempDir()
	first := newCollector()
	d1, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 2, OnResult: first.onResult},
		DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < kill; off += 32 {
		end := off + 32
		if end > kill {
			end = kill
		}
		if err := d1.Eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
		if off <= ckptAt && ckptAt < end {
			if _, err := d1.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	if err := d1.Close(false); err != nil {
		t.Fatal(err)
	}

	second := newCollector()
	d2, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 3, OnResult: second.onResult},
		DurableConfig{Dir: crashDir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if d2.ResumeSeq() != int64(kill) {
		t.Fatalf("recovered engine resumes at %d, want %d", d2.ResumeSeq(), kill)
	}
	for off := kill; off < n; off += 32 {
		end := off + 32
		if end > n {
			end = n
		}
		if err := d2.Eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	watermark := kill - int(d2.Replayed())
	if err := d2.Close(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, ok := first.pairs[int64(i)]
		if i >= watermark {
			got, ok = second.pairs[int64(i)]
		}
		if !ok {
			t.Fatalf("arrival %d never finalized (watermark=%d kill=%d)", i, watermark, kill)
		}
		if !samePairs(wantPerArrival[i], got) {
			t.Fatalf("arrival %d: got %v, reference %v", i, got, wantPerArrival[i])
		}
	}
	if !samePairs(wantFinal, d2.Eng.ResultSet()) {
		t.Fatal("final entity set differs after batched crash recovery")
	}
}

// TestTrySubmitNotBlockedByStall is the subMu contention regression test:
// with the pipeline wedged (OnResult never returns) and a blocking Submit
// parked on the full ingest queue, TrySubmit must still return ErrOverloaded
// promptly instead of queueing behind the submission lock — the old code
// held subMu across the ingest-queue send.
func TestTrySubmitNotBlockedByStall(t *testing.T) {
	f := loadFixture(t)
	release := make(chan struct{})
	var once sync.Once
	eng, err := New(f.sh, Config{
		Core: f.cfg, Shards: 2, ImputeWorkers: 1, QueueDepth: 1,
		OnResult: func(Result) {
			// Wedge the merger on the first finalized arrival; everything
			// upstream backs up behind it.
			once.Do(func() { <-release })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One blocking submitter feeds arrivals in sequence order until the
	// ingest queue is full and its Submit is stalled mid-injection. In
	// order, the router never buffers an arrival it cannot release yet, so
	// the wedged pipeline absorbs no more than its queue capacities add up
	// to, far below `parked`. (Concurrent submitters reached the queue out
	// of order; under CPU load the router's reorder buffer could then
	// absorb all of them and the queue never filled.)
	const parked = 48
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < parked; i++ {
			if err := eng.Submit(f.stream[i]); err != nil {
				t.Errorf("parked submit %d: %v", i, err)
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(eng.imputeIn) < cap(eng.imputeIn) {
		if time.Now().After(deadline) {
			t.Fatal("ingest queue never filled while the pipeline was wedged")
		}
		time.Sleep(time.Millisecond)
	}

	// A full ingest queue can still lose a chunk to the impute worker while
	// the wedge is propagating from the merger up through the post-impute
	// queues, so a TrySubmit may be admitted before the stall reaches the
	// queue for good. Every call must return at once either way, and the
	// pipeline's capacity is finite, so one of the next `parked` calls must
	// be refused.
	admitted := 0
	for {
		if admitted == parked {
			t.Fatalf("TrySubmit admitted %d arrivals into a wedged pipeline, want ErrOverloaded", admitted)
		}
		done := make(chan error, 1)
		go func() { done <- eng.TrySubmit(f.stream[parked+admitted]) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("TrySubmit blocked behind a stalled pipeline (subMu held across the queue send?)")
		}
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("TrySubmit under stall returned %v, want ErrOverloaded", err)
		}
		admitted++
	}

	close(release)
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Completed; got != int64(parked+admitted) {
		t.Fatalf("drained %d arrivals, want %d", got, parked+admitted)
	}
}
