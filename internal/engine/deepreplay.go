// Deep replay: regenerating historical merged results from the durable
// state, for cursors that have fallen behind every in-memory buffer.
//
// The serving layer keeps only a bounded ring of recent results, but the
// snapshot + WAL on disk determine every result ever emitted: restore the
// newest retained checkpoint at-or-below the requested sequence into a
// throwaway engine, re-run the logged arrivals through the normal pipeline,
// and the regenerated results — pair identities, order, probabilities,
// rejections, expirations — are byte-identical to the originals. Reach is
// bounded by what pruning retained: the oldest checkpoint state whose WAL
// suffix survives (or sequence zero while the WAL has never been truncated).
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"terids/internal/core"
	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// ErrNoReplayCoverage reports a deep-replay cursor below everything the
// retained checkpoints + WAL can regenerate — the only case left for an
// HTTP 410.
var ErrNoReplayCoverage = errors.New("engine: sequence predates retained checkpoint/WAL coverage")

// ErrReplayDepthExceeded reports a deep replay that would regenerate more
// arrivals than the configured bound allows.
var ErrReplayDepthExceeded = errors.New("engine: deep replay depth exceeded")

// errReplayStopped is the internal sentinel an emit=false unwinds with.
var errReplayStopped = errors.New("engine: deep replay stopped by caller")

// DeepReach returns the oldest arrival sequence deep replay can regenerate
// results from: zero while the WAL has never been truncated (a throwaway
// engine replays from genesis), otherwise the oldest retained checkpoint
// state whose WAL suffix is fully retained. ok is false when no retained
// state has WAL coverage — deep replay is then impossible.
func (d *Durable) DeepReach() (int64, bool) {
	walFirst := d.Log.Stats().FirstSeq
	if walFirst == 0 {
		return 0, true
	}
	files, _, err := listCheckpointFiles(CheckpointDir(d.cfg.Dir))
	if err != nil {
		return 0, false
	}
	reach, ok := int64(0), false
	for _, f := range files { // newest first — the last qualifying is oldest
		if f.seq >= walFirst {
			reach, ok = f.seq, true
		}
	}
	return reach, ok
}

// replayBase picks the newest checkpoint state at-or-below from that the
// retained WAL can replay forward, materializing delta chains; unreadable
// states fall back to older ones. A nil checkpoint with nil error means
// genesis: the WAL still reaches sequence zero and a fresh engine replays
// from scratch.
func (d *Durable) replayBase(from int64) (*snapshot.Checkpoint, error) {
	walFirst := d.Log.Stats().FirstSeq
	ckptDir := CheckpointDir(d.cfg.Dir)
	files, _, err := listCheckpointFiles(ckptDir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	bySeq := indexBySeq(files)
	for _, f := range files {
		if f.seq > from || f.seq < walFirst {
			continue
		}
		c, err := materializeCheckpoint(ckptDir, bySeq, f, 0)
		if err != nil {
			d.cfg.Logf("deep replay: skipping unreadable checkpoint %s: %v", f.name, err)
			continue
		}
		return c, nil
	}
	if walFirst == 0 {
		return nil, nil
	}
	return nil, fmt.Errorf("%w: no retained checkpoint at or below seq %d with WAL coverage (wal starts at %d)",
		ErrNoReplayCoverage, from, walFirst)
}

// DeepReplay regenerates the merged result stream for sequences >= from:
// the newest retained checkpoint at-or-below from is restored into a
// throwaway engine and the WAL arrivals past its watermark re-run through
// the normal pipeline. emit receives every regenerated Result with
// Seq >= from, in sequence order, byte-identical to the original emission;
// returning false stops the replay early (results already in flight may
// still be produced but are no longer delivered). upTo > 0 tells the replay
// where the caller intends to stop consuming (e.g. the live ring's tail it
// will splice into); it only informs the cost gate — emission is still
// bounded by emit, not upTo. limit > 0 bounds how many arrivals the replay
// may re-run to reach that point (ErrReplayDepthExceeded when the gap is
// wider). The replay runs against a live WAL: arrivals appended while it
// runs are picked up until emit stops it or the durable frontier is reached.
//
//terids:deterministic
func (d *Durable) DeepReplay(ctx context.Context, from, upTo, limit int64, emit func(Result) bool) error {
	if from < 0 {
		from = 0
	}
	ckpt, err := d.replayBase(from)
	if err != nil {
		return err
	}
	base := int64(0)
	if ckpt != nil {
		base = ckpt.Seq
	}
	if limit > 0 {
		// The replay re-runs [base, target): to the caller's splice point
		// when it has one, to the durable frontier otherwise.
		target := d.Log.Stats().DurableSeq
		if upTo > 0 && upTo < target {
			target = upTo
		}
		if span := target - base; span > limit {
			return fmt.Errorf("%w: regenerating from seq %d would re-run %d arrivals, limit is %d",
				ErrReplayDepthExceeded, base, span, limit)
		}
	}

	cfg := d.engCfg
	cfg.WAL = nil
	// The throwaway engine regenerates history; letting it publish stage
	// metrics or traces would pollute the live distributions.
	cfg.ObsOff = true
	cfg.TraceSample = 0
	//lint:ignore nodeterm replay duration metric; never touches emitted bytes
	replayStart := time.Now()
	var stop atomic.Bool
	cfg.OnResult = func(res Result) {
		if stop.Load() || res.Seq < from {
			return
		}
		if !emit(res) {
			stop.Store(true)
		}
	}
	var eng *Engine
	if ckpt != nil {
		eng, err = NewFromSnapshot(d.sh, cfg, ckpt)
	} else {
		eng, err = New(d.sh, cfg)
	}
	if err != nil {
		return err
	}

	// Regeneration is batched: the cursor only advances past entries whose
	// batch was submitted, so a restart after an error or stop re-reads
	// exactly the unsubmitted suffix.
	const replayBatch = 64
	cursor := base
	batch := make([]*tuple.Record, 0, replayBatch)
	flush := func(upto int64) error {
		if len(batch) == 0 {
			return nil
		}
		err := eng.SubmitBatch(batch)
		batch = batch[:0]
		if err == nil {
			cursor = upto
		}
		return err
	}
	for !stop.Load() {
		if err := ctx.Err(); err != nil {
			break
		}
		frontier := d.Log.Stats().DurableSeq
		if cursor >= frontier {
			break
		}
		last := cursor
		err := d.Log.Replay(cursor, func(e wal.Entry) error {
			if stop.Load() {
				return errReplayStopped
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			rec, err := core.ArrivalRecord(d.sh.Schema, e.RID, e.Stream, e.TupleSeq, e.EntityID, e.Values)
			if err != nil {
				return err
			}
			batch = append(batch, rec)
			last = e.Seq + 1
			if len(batch) < replayBatch {
				return nil
			}
			return flush(last)
		})
		if err == nil {
			err = flush(last)
		}
		if err != nil && !errors.Is(err, errReplayStopped) {
			eng.Close()
			if errors.Is(err, wal.ErrTruncated) {
				// The checkpointer truncated the range out from under the
				// replay: coverage is gone, which is a 410 to the caller,
				// not a server error.
				return fmt.Errorf("%w: %v", ErrNoReplayCoverage, err)
			}
			return fmt.Errorf("engine: deep replay: %w", err)
		}
		if err != nil {
			// Stopped mid-log: the unsubmitted tail is discarded.
			batch = batch[:0]
			break
		}
	}
	// Drain: results still in flight fire through the guarded OnResult.
	if err := eng.Close(); err != nil {
		return fmt.Errorf("engine: deep replay drain: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	d.deepReplays.Add(1)
	//lint:ignore nodeterm replay duration metric; never touches emitted bytes
	took := time.Since(replayStart)
	if m := d.met; m != nil {
		m.deepReplay.ObserveDuration(took)
	}
	d.Eng.jr.Record("deep_replay", "regenerated historical results from checkpoint + WAL",
		map[string]any{
			"from": from, "base": base,
			"duration_ms": float64(took.Microseconds()) / 1000,
		})
	return nil
}
