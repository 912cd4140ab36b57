// Live checkpoint application: advancing a RUNNING engine to a newer
// checkpoint without tearing the object down. This is the follower
// replica's catch-up path — when the writer's checkpointer truncates the
// WAL underneath the tailer, the follower applies the delta-checkpoint
// chain onto its live engine and resumes tailing from the new watermark,
// instead of rebuilding from scratch. The engine object, its OnResult
// subscribers, metrics, and journal all survive the jump; only the
// window/shard state and the entity set are replaced. The shard count K
// stays the engine's own: placement never affects which pairs are emitted,
// so a checkpoint taken at any K applies to any other.
//
// AttachWAL is the other half of warm-standby takeover: promotion opens
// the writer's log (the flock guarantees the old writer is gone), replays
// the un-tailed remainder, then flips the engine onto the durable
// submission path — every later Submit reserves its slot in the WAL
// exactly as a writer-born engine would.
package engine

import (
	"fmt"

	"terids/internal/core"
	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// AttachWAL flips a WAL-less engine onto the durable submission path:
// every subsequent submission reserves its sequence in l before entering
// the pipeline. The log must already hold exactly the engine's history
// below its current watermark (promotion replays the remainder first), so
// the first durable reservation continues the sequence space without a
// gap. Attaching twice, or to an engine built with a WAL, is an error.
func (e *Engine) AttachWAL(l *wal.Log) error {
	if l == nil {
		return fmt.Errorf("engine: AttachWAL: nil log")
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.cfg.WAL != nil {
		return fmt.Errorf("engine: a WAL is already attached")
	}
	if next := l.Stats().NextSeq; next != e.seq.Load() {
		return fmt.Errorf("engine: WAL next seq %d does not meet engine watermark %d", next, e.seq.Load())
	}
	e.cfg.WAL = l
	return nil
}

// ApplyCheckpoint advances a running engine to checkpoint c in place:
// barrier-drain to the current watermark, stop the pipeline, swap the
// window/shard state for the checkpoint's, replace the entity set and
// progress counters, and restart. Submissions block for the duration;
// OnResult, metrics, and the journal stay attached.
// The checkpoint must be at or ahead of the engine's watermark — a live
// engine never rewinds. Must not be called from OnResult.
//
//terids:deterministic
func (e *Engine) ApplyCheckpoint(c *snapshot.Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := core.CheckpointCompatible(e.step.Shared(), e.cfg.Core, c); err != nil {
		return err
	}

	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := e.Err(); err != nil {
		return err
	}
	if c.Seq < e.seq.Load() {
		return fmt.Errorf("engine: checkpoint watermark %d is behind the engine at %d", c.Seq, e.seq.Load())
	}

	e.applying.Store(true)
	defer e.applying.Store(false)
	// Submitters between sequence assignment and pipeline injection must
	// land before the barrier can drain to the watermark.
	e.inflight.Wait()
	target := e.seq.Load()
	e.resultsMu.Lock()
	for e.completed < target && e.Err() == nil {
		e.drained.Wait()
	}
	e.resultsMu.Unlock()
	if err := e.Err(); err != nil {
		return err
	}
	// The pipeline is idle at the barrier; stop it (closing intake cascades
	// left to right) and rebuild under the checkpoint's state.
	close(e.imputeIn)
	e.mergeWG.Wait()
	if err := e.Err(); err != nil {
		return err
	}
	e.stateMu.Lock()
	recs, err := e.rebuild(c)
	e.stateMu.Unlock()
	if err == nil {
		results := core.NewResultSet()
		if rerr := core.RestoreResults(results, recs, c); rerr != nil {
			err = rerr
		} else {
			e.resultsMu.Lock()
			e.results = results
			e.completed = c.Completed
			e.rejected = c.Rejected
			e.resultsMu.Unlock()
		}
	}
	if err != nil {
		// The old pipeline is gone and the new one never started: the
		// engine is unusable. Fail it so submitters see the error.
		e.closed = true
		e.fail(err)
		return err
	}
	e.seq.Store(c.Seq)
	e.start()
	e.jr.Record("checkpoint_applied", "advanced live engine to checkpoint",
		map[string]any{"seq": c.Seq, "shards": e.cfg.Shards, "residents": len(c.Residents)})
	return nil
}

// ApplyingCheckpoint reports whether ApplyCheckpoint is in its pause window
// (submissions locked out, pipeline torn down or rebuilding). Serving
// layers surface it through /readyz.
func (e *Engine) ApplyingCheckpoint() bool { return e.applying.Load() }

// rebuild replaces the window/shard state and the pipeline channels at the
// engine's K and reloads the checkpointed residents, returning the restored
// resident records (ApplyCheckpoint rebuilds the result set from them).
// Caller holds subMu and stateMu with every pipeline goroutine stopped; the
// result set and progress counters are left untouched.
func (e *Engine) rebuild(c *snapshot.Checkpoint) ([]*tuple.Record, error) {
	if err := e.resetState(); err != nil {
		return nil, err
	}
	e.startSeq = c.Seq
	return e.loadResidents(c)
}
