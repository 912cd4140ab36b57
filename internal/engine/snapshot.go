package engine

import (
	"fmt"
	"sort"

	"terids/internal/core"
	"terids/internal/grid"
	"terids/internal/snapshot"
	"terids/internal/tuple"
)

// Checkpoint is the engine's barrier snapshot: it pauses intake (new
// submissions block on the submission lock), lets the impute pool, router,
// shards, and merger drain every in-flight arrival, and captures all K shard
// grids, the window slices, the entity set, and the merger watermark at a
// single sequence number S — then releases intake. The pipeline goroutines
// are never stopped; they simply go idle at the barrier.
//
// State gathering is race-free without extra locks on the shard/router state
// because of the pipeline's happens-before chain: each stage's writes for
// sequence n precede its channel send for n, the merger's receive precedes
// its completed-counter update under resultsMu, and Checkpoint reads the
// counter under resultsMu before touching any stage state.
//
// The returned checkpoint can be restored at any shard count K' via
// NewFromSnapshot, or into a single-threaded core.Processor.
//
//terids:deterministic
func (e *Engine) Checkpoint() (*snapshot.Checkpoint, error) {
	// Holding subMu for the whole capture keeps the watermark from
	// advancing.
	e.subMu.Lock()
	defer e.subMu.Unlock()
	target := e.seq.Load()

	e.resultsMu.Lock()
	defer e.resultsMu.Unlock()
	for e.completed < target && e.Err() == nil {
		e.drained.Wait()
	}
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint aborted, pipeline failed: %w", err)
	}

	// Arrival sequences live in the shards' residency maps (broadcast
	// residents appear in several shards with the same sequence).
	seqOf := make(map[string]int64)
	for _, s := range e.shards {
		//lint:ignore nodeterm iteration order erased: residents are sorted by arrival seq below
		for rid, sq := range s.seqOf {
			seqOf[rid] = sq
		}
	}

	var recs []*tuple.Record
	if e.timeWins != nil {
		for _, tw := range e.timeWins {
			recs = append(recs, tw.Export()...)
		}
	} else {
		recs = e.windows.Export()
	}
	for _, r := range recs {
		if _, ok := seqOf[r.RID]; !ok {
			return nil, fmt.Errorf("engine: window resident %s missing from every shard", r.RID)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return seqOf[recs[i].RID] < seqOf[recs[j].RID] })

	c := core.NewCheckpointHeader(e.step.Shared(), e.cfg.Core)
	c.Seq = target
	c.Completed = e.completed
	c.Rejected = e.rejected
	c.Shards = e.cfg.Shards
	for _, r := range recs {
		c.Residents = append(c.Residents, core.ResidentFromRecord(r, seqOf[r.RID]))
	}
	if err := core.CheckpointPairs(e.results, c); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint self-check: %w", err)
	}
	return c, nil
}

// maxAdoptShards bounds the shard count an auto-sizing restore (Shards == 0)
// will adopt from a checkpoint. Checkpoints are CRC-checked, not
// authenticated: a tampered Shards field must not be able to make recovery
// spawn an arbitrary number of goroutines and grids. Mirrors
// cliutil.MaxShards, the cap every flag path enforces.
const maxAdoptShards = 64

// NewFromSnapshot rebuilds an engine from a checkpoint taken at any shard
// count and resumes at its watermark. Residency is re-derived from each
// resident's recomputed profile under the new configuration's K', so
// restoring at a different shard count reshards for free; output remains
// byte-identical to an uninterrupted run because resolution never depends on
// where a tuple resides. When the configuration auto-sizes the shard count
// (Shards == 0), the checkpoint's K is adopted, up to maxAdoptShards.
//
//terids:deterministic
func NewFromSnapshot(sh *core.Shared, cfg Config, c *snapshot.Checkpoint) (*Engine, error) {
	if cfg.Shards == 0 && c.Shards >= 1 && c.Shards <= maxAdoptShards {
		cfg.Shards = c.Shards
	}
	e, err := newEngine(sh, cfg)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := core.CheckpointCompatible(sh, e.cfg.Core, c); err != nil {
		return nil, err
	}
	recs, err := e.loadResidents(c)
	if err != nil {
		return nil, err
	}
	if err := core.RestoreResults(e.results, recs, c); err != nil {
		return nil, err
	}
	e.startSeq = c.Seq
	e.seq.Store(c.Seq)
	e.completed = c.Completed
	e.rejected = c.Rejected
	e.start()
	return e, nil
}

// loadResidents replays the checkpoint's residents into the windows, the
// live set, and the shard grids — the restore body shared by
// NewFromSnapshot and ApplyCheckpoint. The engine must be freshly built (or
// rebuilt) and not yet started.
//
//terids:deterministic
func (e *Engine) loadResidents(c *snapshot.Checkpoint) ([]*tuple.Record, error) {
	recs, err := core.CheckpointRecords(e.step.Shared().Schema, c)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		expired, err := e.pushWindow(rec)
		if err != nil {
			return nil, err
		}
		if len(expired) > 0 {
			return nil, fmt.Errorf("engine: checkpoint resident %s overflows stream %d window",
				rec.RID, rec.Stream)
		}
		seq := c.Residents[i].ArrivalSeq
		im, _ := e.step.Impute(rec)
		prof := e.step.Profile(im)
		e.live[rec.RID] = struct{}{}
		for _, h := range e.homeShards(prof) {
			s := e.shards[h]
			if err := s.grid.Insert(&grid.Entry{Rec: rec, Prof: prof}); err != nil {
				return nil, err
			}
			s.seqOf[rec.RID] = seq
			s.residents.Add(1)
		}
	}
	return recs, nil
}
