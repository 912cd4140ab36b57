// Follower replicas: read-path scale-out by tailing the writer's
// durability directory. A follower restores the newest checkpoint, then
// continuously tails the writer's WAL through a read-only wal.Tailer and
// re-runs every durable arrival through its own pipeline — so its merged
// results are byte-identical to the writer's, a poll interval behind.
//
// When the writer's checkpointer truncates the WAL below the follower's
// cursor (the follower fell behind, or just booted against an old
// checkpoint), the follower catches up WITHOUT a cold rebuild: it resolves
// the newest on-disk checkpoint — applying the delta chain onto the
// checkpoint state it already holds in memory when the chain connects —
// and advances its live engine to it via ApplyCheckpoint. OnResult
// subscribers, metrics, and the journal survive the jump.
//
// Promotion (warm-standby takeover) turns the follower into the writer:
// stop tailing, take the writer flock (refused with wal.ErrLocked while
// the old writer is alive — the kernel drops the lock on any exit,
// including SIGKILL), replay the un-tailed WAL remainder, attach the log
// to the live submission path, and return a fully-functional Durable
// handle with its checkpointer running.
package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"terids/internal/core"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// FollowerConfig tunes a follower replica.
type FollowerConfig struct {
	// Dir is the writer's durability directory. It must already exist: a
	// follower never creates or mutates the directory it tails.
	Dir string
	// Poll is the tail poll interval (default 25ms). Each pass reads every
	// durable arrival appended since the last one.
	Poll time.Duration
	// Durable configures the checkpointer the follower starts when it is
	// promoted to writer (Dir is overridden with the directory above).
	Durable DurableConfig
	// Logf, when set, receives tail-loop progress and errors.
	Logf func(format string, args ...any)

	// beforePass, when set, is called at the top of every tail pass — a
	// test hook to stall the tailer until the writer has truncated, forcing
	// the checkpoint catch-up path.
	beforePass func()
}

func (fc *FollowerConfig) fill() {
	if fc.Poll <= 0 {
		fc.Poll = 25 * time.Millisecond
	}
	if fc.Logf == nil {
		fc.Logf = func(string, ...any) {}
	}
}

// FollowerStats is the /stats health block for a follower replica.
type FollowerStats struct {
	Dir string `json:"dir"`
	// RecoveredFrom is the checkpoint file the follower booted from.
	RecoveredFrom string `json:"recovered_from,omitempty"`
	// AppliedSeq is the next WAL sequence the follower will request — every
	// arrival below it has been applied. FrontierSeq is the writer's durable
	// frontier as of the last pass; LagSeq is the gap still unapplied.
	AppliedSeq  int64 `json:"applied_seq"`
	FrontierSeq int64 `json:"frontier_seq"`
	LagSeq      int64 `json:"lag_seq"`
	// Passes counts completed tail passes; Catchups counts checkpoint
	// catch-ups (WAL truncated below the cursor); IncrementalCatchups the
	// subset that applied a delta chain onto the in-memory base instead of
	// materializing from a full snapshot.
	Passes              int64 `json:"passes"`
	Catchups            int64 `json:"catchups"`
	IncrementalCatchups int64 `json:"incremental_catchups"`
	// WriterAlive reports whether a live writer currently holds the
	// directory's flock. Promoted is set once this replica took over.
	WriterAlive bool `json:"writer_alive"`
	Promoted    bool `json:"promoted"`
}

// Follower is a live read-only replica over a writer's durability
// directory.
type Follower struct {
	// Eng is the replica engine; reads (results, stats, deep state) go
	// through it as usual. Submissions are refused by the serving layer
	// until promotion.
	Eng *Engine

	cfg    FollowerConfig
	sh     *core.Shared
	engCfg Config

	tailer        *wal.Tailer
	recoveredFrom string

	applied     atomic.Int64 // next sequence to request from the tailer
	frontier    atomic.Int64 // durable frontier as of the last pass
	passes      atomic.Int64
	catchups    atomic.Int64
	incCatchups atomic.Int64

	// base is the in-memory image of the last checkpoint state this
	// follower applied — the anchor incremental delta chains connect to.
	// pendingBatch is the tail-apply batch under construction. Both are
	// owned by the tail loop (and by Promote after the loop stops).
	base         *snapshot.Checkpoint
	pendingBatch []*tuple.Record

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	promoteMu sync.Mutex
	promoted  *Durable
}

// OpenFollower boots a follower replica over a writer's durability
// directory: restore the newest checkpoint (if any), start tailing the WAL
// past its watermark, and keep applying until Close or Promote. The engine
// config must not carry a WAL.
func OpenFollower(sh *core.Shared, cfg Config, fc FollowerConfig) (*Follower, error) {
	fc.fill()
	if cfg.WAL != nil {
		return nil, fmt.Errorf("engine: follower config must not carry a WAL")
	}

	tailer, err := wal.OpenTail(fc.Dir)
	if err != nil {
		return nil, fmt.Errorf("engine: follower: %w", err)
	}
	path, ckpt, err := LatestCheckpoint(fc.Dir)
	if err != nil {
		return nil, err
	}
	var eng *Engine
	if ckpt != nil {
		eng, err = NewFromSnapshot(sh, cfg, ckpt)
	} else {
		eng, err = New(sh, cfg)
	}
	if err != nil {
		return nil, err
	}

	f := &Follower{
		Eng: eng, cfg: fc, sh: sh, engCfg: cfg,
		tailer: tailer, recoveredFrom: path, base: ckpt,
		stop: make(chan struct{}),
	}
	if ckpt != nil {
		f.applied.Store(ckpt.Seq)
		f.frontier.Store(ckpt.Seq)
	}
	eng.jr.Record("follower_start", "follower replica tailing writer WAL",
		map[string]any{"dir": fc.Dir, "from_seq": f.applied.Load(), "checkpoint": path})
	f.wg.Add(1)
	go f.tailLoop()
	return f, nil
}

// tailLoop polls the WAL until Close or Promote stops it. Pass errors are
// logged and retried: the writer may be rotating, truncating, or gone —
// none of which should kill the replica.
func (f *Follower) tailLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		if err := f.pass(); err != nil {
			if errors.Is(err, ErrClosed) {
				return
			}
			f.cfg.Logf("follower: tail pass: %v", err)
		}
	}
}

// pass runs one tail iteration: stream every new durable arrival through
// the pipeline, and fall back to a checkpoint catch-up when the WAL was
// truncated below the cursor.
//
//terids:deterministic
func (f *Follower) pass() error {
	if f.cfg.beforePass != nil {
		f.cfg.beforePass()
	}
	from := f.applied.Load()
	next, err := f.tailer.Replay(from, f.submitEntries())
	if serr := f.flushPending(); serr != nil {
		return serr
	}
	if next > f.applied.Load() {
		f.applied.Store(next)
	}
	switch {
	case err == nil:
		f.frontier.Store(next)
		f.passes.Add(1)
		return nil
	case errors.Is(err, wal.ErrTruncated):
		return f.catchUp()
	default:
		return err
	}
}

// submitEntries returns the per-entry callback: it batches arrivals and
// submits full batches through the pipeline. The trailing partial batch is
// flushed by flushPending after the pass.
func (f *Follower) submitEntries() func(wal.Entry) error {
	return func(e wal.Entry) error {
		rec, err := core.ArrivalRecord(f.sh.Schema, e.RID, e.Stream, e.TupleSeq, e.EntityID, e.Values)
		if err != nil {
			return err
		}
		f.pendingBatch = append(f.pendingBatch, rec)
		if len(f.pendingBatch) < followerBatch {
			return nil
		}
		return f.flushPending()
	}
}

// followerBatch sizes the tail-apply batches — same amortization as boot
// replay.
const followerBatch = 256

// flushPending submits the batch under construction.
func (f *Follower) flushPending() error {
	if len(f.pendingBatch) == 0 {
		return nil
	}
	err := f.Eng.SubmitBatch(f.pendingBatch)
	f.pendingBatch = f.pendingBatch[:0]
	return err
}

// catchUp advances the live engine to the newest on-disk checkpoint after
// the WAL was truncated below the cursor. When the checkpoint's delta
// chain connects to the state the follower already holds in memory, only
// the deltas are read and applied (snapshot.ApplyDelta forward from the
// in-memory base) — catch-up cost proportional to the change, never a
// cold rebuild. A chain that does not connect falls back to full
// materialization; the engine swap is the same either way.
func (f *Follower) catchUp() error {
	ckptDir := CheckpointDir(f.cfg.Dir)
	files, _, err := listCheckpointFiles(ckptDir)
	if err != nil {
		return err
	}
	bySeq := indexBySeq(files)
	applied := f.applied.Load()
	var lastErr error
	for _, file := range files { // newest first
		if file.seq < applied {
			break // older than what we already hold: WAL retention must cover us next pass
		}
		c, incremental, err := f.materialize(ckptDir, bySeq, file)
		if err != nil {
			lastErr = err
			continue
		}
		if err := f.Eng.ApplyCheckpoint(c); err != nil {
			return err
		}
		f.base = c
		f.applied.Store(c.Seq)
		if c.Seq > f.frontier.Load() {
			f.frontier.Store(c.Seq)
		}
		f.catchups.Add(1)
		if incremental {
			f.incCatchups.Add(1)
		}
		f.Eng.jr.Record("follower_catchup", "WAL truncated below cursor; advanced to checkpoint",
			map[string]any{"seq": c.Seq, "incremental": incremental, "file": file.name})
		f.cfg.Logf("follower: caught up to checkpoint %s (seq %d, incremental=%v)", file.name, c.Seq, incremental)
		return nil
	}
	if lastErr != nil {
		return fmt.Errorf("engine: follower catch-up: %w", lastErr)
	}
	return fmt.Errorf("engine: follower catch-up: wal truncated below seq %d and no newer checkpoint found", applied)
}

// materialize loads the full state file represents, preferring the
// incremental path: when the file's delta chain bottoms out at the
// in-memory base's watermark, the deltas are applied forward from that
// base without touching any full snapshot on disk.
func (f *Follower) materialize(ckptDir string, bySeq map[int64]ckptFile, file ckptFile) (*snapshot.Checkpoint, bool, error) {
	if f.base != nil && file.base >= 0 {
		var chain []ckptFile // newest → oldest
		cur := file
		for len(chain) <= maxChainDepth && cur.base >= 0 {
			chain = append(chain, cur)
			if cur.base == f.base.Seq {
				c := f.base
				for i := len(chain) - 1; i >= 0; i-- {
					dl, err := snapshot.ReadDeltaFile(filepath.Join(ckptDir, chain[i].name))
					if err != nil {
						return nil, false, err
					}
					nc, err := snapshot.ApplyDelta(c, dl)
					if err != nil {
						return nil, false, err
					}
					c = nc
				}
				return c, true, nil
			}
			bf, ok := bySeq[cur.base]
			if !ok || bf.seq >= cur.seq {
				break
			}
			cur = bf
		}
	}
	c, err := materializeCheckpoint(ckptDir, bySeq, file, 0)
	return c, false, err
}

// Lag reports how many durable writer arrivals the follower's merged
// output still trails by, as of the last tail pass.
func (f *Follower) Lag() int64 {
	lag := f.frontier.Load() - f.Eng.Completed()
	if lag < 0 {
		return 0
	}
	return lag
}

// CaughtUp reports whether the follower has completed at least one tail
// pass and holds every durable arrival it has seen — the readiness
// condition for serving reads.
func (f *Follower) CaughtUp() bool {
	return (f.passes.Load() > 0 || f.catchups.Load() > 0) && f.Lag() == 0
}

// WriterAlive reports whether a live writer currently holds the tailed
// directory's lock.
func (f *Follower) WriterAlive() bool { return wal.WriterAlive(f.cfg.Dir) }

// Stats reports follower health for /stats.
func (f *Follower) Stats() FollowerStats {
	f.promoteMu.Lock()
	promoted := f.promoted != nil
	f.promoteMu.Unlock()
	return FollowerStats{
		Dir:                 f.cfg.Dir,
		RecoveredFrom:       f.recoveredFrom,
		AppliedSeq:          f.applied.Load(),
		FrontierSeq:         f.frontier.Load(),
		LagSeq:              f.Lag(),
		Passes:              f.passes.Load(),
		Catchups:            f.catchups.Load(),
		IncrementalCatchups: f.incCatchups.Load(),
		WriterAlive:         f.WriterAlive(),
		Promoted:            promoted,
	}
}

// Promote turns the follower into the writer: stop tailing, seal at the
// WAL frontier (take the writer flock — refused with wal.ErrLocked while
// the old writer is still alive), replay the un-tailed remainder through
// the pipeline, attach the log to the live submission path, and return a
// Durable handle with the background checkpointer running. Idempotent:
// a second call returns the same handle. On failure before the point of
// no return the tail loop is restarted and the follower keeps following.
func (f *Follower) Promote() (*Durable, error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.promoted != nil {
		return f.promoted, nil
	}
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()

	dcfg := f.cfg.Durable
	dcfg.Dir = f.cfg.Dir
	dcfg.fill()
	log, err := wal.Open(f.cfg.Dir, wal.Options{
		SegmentBytes: dcfg.SegmentBytes, QueueDepth: dcfg.QueueDepth, NoSync: dcfg.NoSync,
	})
	if err != nil {
		f.resumeTailing()
		return nil, err
	}
	fail := func(err error) (*Durable, error) {
		log.Close()
		f.resumeTailing()
		return nil, err
	}
	// Drain the remainder: everything durable past the applied cursor runs
	// through the pipeline now, exactly as a tail pass would have. A
	// truncation race here is resolved by one checkpoint catch-up.
	for attempt := 0; ; attempt++ {
		err := f.replayRemainder(log)
		if err == nil {
			break
		}
		if errors.Is(err, wal.ErrTruncated) && attempt == 0 {
			if cerr := f.catchUp(); cerr == nil {
				continue
			}
		}
		return fail(fmt.Errorf("engine: promote: %w", err))
	}
	if err := f.Eng.AttachWAL(log); err != nil {
		return fail(err)
	}

	d := &Durable{
		Eng: f.Eng, Log: log, cfg: dcfg,
		sh: f.sh, engCfg: f.engCfg,
		recoveredFrom: f.recoveredFrom,
		restored:      f.base,
		resumeSeq:     f.applied.Load(),
		lastCkptSeq:   -1,
		stop:          make(chan struct{}),
	}
	if !f.engCfg.ObsOff {
		reg := f.engCfg.Obs
		if reg == nil {
			reg = obs.Default()
		}
		d.met = newDurableMetrics(reg)
	}
	d.snapshots = d.countSnapshots()
	if dcfg.CheckpointInterval > 0 {
		d.wg.Add(1)
		go d.checkpointLoop()
	}
	f.Eng.jr.Record("follower_promote", "warm standby took over as writer",
		map[string]any{"dir": f.cfg.Dir, "resume_seq": d.resumeSeq, "catchups": f.catchups.Load()})
	f.cfg.Logf("follower: promoted to writer at seq %d", d.resumeSeq)
	f.promoted = d
	return d, nil
}

// replayRemainder runs every logged arrival past the applied cursor
// through the pipeline, via the just-opened log (the directory is sealed:
// we hold the writer lock and nothing else appends).
func (f *Follower) replayRemainder(log *wal.Log) error {
	from := f.applied.Load()
	err := log.Replay(from, f.submitEntries())
	if serr := f.flushPending(); serr != nil {
		return serr
	}
	if err != nil {
		return err
	}
	st := log.Stats()
	f.applied.Store(st.NextSeq)
	f.frontier.Store(st.NextSeq)
	return nil
}

// resumeTailing restarts the tail loop after a failed promotion.
func (f *Follower) resumeTailing() {
	f.stop = make(chan struct{})
	f.stopOnce = sync.Once{}
	f.wg.Add(1)
	go f.tailLoop()
}

// Close stops the tail loop and the engine. After a successful Promote the
// engine and log belong to the returned Durable handle; Close then only
// stops what the follower still owns.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	f.promoteMu.Lock()
	promoted := f.promoted != nil
	f.promoteMu.Unlock()
	if promoted {
		return nil
	}
	return f.Eng.Close()
}
