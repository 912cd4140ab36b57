// Package grid implements the ER-grid data synopsis of Section 5.2: a
// sparse grid over the converted space [0,1]^d (main-pivot Jaccard
// distances) plus one binary topic axis. An imputed tuple occupies the box
// of its per-attribute distance intervals and is stored in every cell that
// box intersects, on the side of the topic axis given by whether any of its
// instances may carry a query keyword (Profile.MayKW). Keyword-free tuples
// therefore share cells only with keyword-free tuples, and Theorem 4.1 at
// cell level removes every keyword-free resident from a keyword-free
// query's candidates without a tuple-level test.
//
// Cells carry the aggregates of Section 5.2 (keyword vector, per-pivot
// distance intervals, token-size intervals) for cell-level pruning before
// tuple-level pruning. Remove does not re-merge them: it marks the cell
// stale, and Candidates rebuilds a stale aggregate only when it fails to
// prune the cell. A stale aggregate still bounds every resident, so a cell
// it prunes is one the rebuilt aggregate prunes too.
//
// Candidates deduplicates multi-cell entries with a per-query epoch stamped
// on each emitted entry. A stamp means something only to the grid that
// wrote it, so an entry is resident in at most one grid at a time: Insert
// rejects an entry that is still resident.
package grid

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"terids/internal/agg"
	"terids/internal/prune"
	"terids/internal/tuple"
)

// Entry is one tuple resident in the grid.
type Entry struct {
	Rec  *tuple.Record
	Prof *prune.Profile
	// sum caches Prof.Summary at the grid's pivot width; computed on
	// first insert and reused when cell aggregates are rebuilt.
	sum *agg.Summary
	// ord is the grid-assigned insertion ordinal: a cheap deterministic
	// identity for ordering in hot paths. It is 0 while the entry is not
	// resident.
	ord int64
	// stamp is the epoch of the last Candidates call that emitted the
	// entry: its per-query dedup mark across the cells it occupies.
	stamp uint64
	// cells holds the cells the entry occupies.
	cells []*cell
}

// Ord returns the entry's insertion ordinal (0 while not resident).
func (e *Entry) Ord() int64 { return e.ord }

type cell struct {
	key     string
	entries []*Entry
	summary *agg.Summary
	// stale reports that entries left since summary was merged: it still
	// bounds every resident, but may be wider than a fresh merge.
	stale bool
}

func (c *cell) remove(e *Entry) {
	for i, o := range c.entries {
		if o == e {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			return
		}
	}
}

// pruned applies the cell-level tests to c. A stale aggregate is tried
// first: it bounds a superset of the residents and both tests are monotone
// in it (wider intervals only raise the similarity upper bound, extra
// keyword bits only keep a cell), so whatever it prunes the rebuilt
// aggregate prunes too. Only a cell it keeps is rebuilt and tested again.
func (c *cell) pruned(q *prune.Profile, opt Query) bool {
	if summaryPrunes(c.summary, q, opt) {
		return true
	}
	if !c.stale {
		return false
	}
	c.summary.Reset()
	for _, e := range c.entries {
		c.summary.Merge(e.sum)
	}
	c.stale = false
	return summaryPrunes(c.summary, q, opt)
}

// summaryPrunes reports whether no resident summarized by s can pair with
// query q: by topic (Theorem 4.1: if the query can never carry a keyword,
// only cells that may contain one can form result pairs) or by the
// similarity upper bound over the aggregate (Theorem 4.2).
func summaryPrunes(s *agg.Summary, q *prune.Profile, opt Query) bool {
	if !opt.DisableTopic && !q.MayKW && !s.KW.Any() {
		return true
	}
	return !opt.DisableSim && prune.SimPrune(q.Bounds, prune.Bounds{Dist: s.Dist, Size: s.Size}, opt.Gamma)
}

// Grid is the ER-grid G_ER. It is not safe for concurrent use.
type Grid struct {
	d    int // attributes (grid dimensionality)
	n    int // cells per dimension
	nPiv int // pivot slots in summaries
	nKW  int // keyword vector width
	h    float64

	cells   map[string]*cell
	recs    map[string]*Entry // rid -> entry
	nextOrd int64
	epoch   uint64 // Candidates calls so far; the current dedup stamp
}

// New creates a grid with cellsPerDim cells along each of the d dimensions.
func New(d, cellsPerDim, nPiv, nKW int) (*Grid, error) {
	if d < 1 || cellsPerDim < 1 {
		return nil, fmt.Errorf("grid: bad geometry d=%d cells=%d", d, cellsPerDim)
	}
	if nPiv < 1 {
		return nil, fmt.Errorf("grid: need at least the main pivot, got %d", nPiv)
	}
	return &Grid{
		d: d, n: cellsPerDim, nPiv: nPiv, nKW: nKW,
		h:     1 / float64(cellsPerDim),
		cells: make(map[string]*cell),
		recs:  make(map[string]*Entry),
	}, nil
}

// Len returns the number of resident tuples.
func (g *Grid) Len() int { return len(g.recs) }

// CellCount returns the number of materialized (non-empty) cells; the
// topic axis counts, so a box can materialize up to two cells per
// coordinate.
func (g *Grid) CellCount() int { return len(g.cells) }

// coord clamps v into [0,1] and returns its cell index.
func (g *Grid) coord(v float64) int {
	if v < 0 {
		v = 0
	}
	i := int(v * float64(g.n))
	if i >= g.n {
		i = g.n - 1
	}
	return i
}

// key renders a cell coordinate: the distance-axis indexes, then the topic
// axis (1 for cells of keyword-bearing entries).
func key(idx []int, kw bool) string {
	var b strings.Builder
	for _, v := range idx {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	if kw {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
	return b.String()
}

// boxCells enumerates the keys of all cells intersecting the box [lo, hi]
// on the given side of the topic axis.
func (g *Grid) boxCells(lo, hi []float64, kw bool) []string {
	loIdx := make([]int, g.d)
	hiIdx := make([]int, g.d)
	total := 1
	for x := 0; x < g.d; x++ {
		loIdx[x] = g.coord(lo[x])
		hiIdx[x] = g.coord(hi[x])
		total *= hiIdx[x] - loIdx[x] + 1
	}
	keys := make([]string, 0, total)
	idx := append([]int(nil), loIdx...)
	for {
		keys = append(keys, key(idx, kw))
		x := g.d - 1
		for x >= 0 {
			idx[x]++
			if idx[x] <= hiIdx[x] {
				break
			}
			idx[x] = loIdx[x]
			x--
		}
		if x < 0 {
			break
		}
	}
	return keys
}

// Insert adds an entry to every cell its main-pivot box intersects on its
// side of the topic axis and updates cell aggregates. Inserting an RID
// already present is an error (evict first), and so is inserting an entry
// that is resident in any grid: the dedup stamp assumes one owner.
func (g *Grid) Insert(e *Entry) error {
	rid := e.Rec.RID
	if e.ord != 0 {
		return fmt.Errorf("grid: entry %s is already resident in a grid", rid)
	}
	if _, dup := g.recs[rid]; dup {
		return fmt.Errorf("grid: duplicate insert of %s", rid)
	}
	lo, hi := e.Prof.MainBox()
	if len(lo) != g.d {
		return fmt.Errorf("grid: entry dimensionality %d, grid %d", len(lo), g.d)
	}
	keys := g.boxCells(lo, hi, e.Prof.MayKW)
	if e.sum == nil {
		e.sum = e.Prof.Summary(g.nPiv)
	}
	g.nextOrd++
	e.ord = g.nextOrd
	e.stamp = 0
	e.cells = make([]*cell, 0, len(keys))
	sum := e.sum
	for _, k := range keys {
		c, ok := g.cells[k]
		if !ok {
			c = &cell{
				key:     k,
				summary: agg.NewSummary(g.d, g.nPiv, g.nKW),
			}
			g.cells[k] = c
		}
		c.entries = append(c.entries, e)
		c.summary.Merge(sum)
		e.cells = append(e.cells, c)
	}
	g.recs[rid] = e
	return nil
}

// Remove evicts a tuple (window expiry) and marks the cells that held it
// stale; Candidates rebuilds their aggregates when it needs them. It
// reports whether the RID was present.
func (g *Grid) Remove(rid string) bool {
	e, ok := g.recs[rid]
	if !ok {
		return false
	}
	for _, c := range e.cells {
		c.remove(e)
		if len(c.entries) == 0 {
			delete(g.cells, c.key)
			continue
		}
		c.stale = true
	}
	e.cells = nil
	e.ord = 0
	delete(g.recs, rid)
	return true
}

// Export returns the resident entries in insertion-ordinal order — the
// minimal state a checkpoint needs. Cells, aggregates, and ordinals are
// derived state that Import rebuilds.
func (g *Grid) Export() []*Entry {
	out := make([]*Entry, 0, len(g.recs))
	for _, e := range g.recs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ord < out[j].ord })
	return out
}

// Import bulk-loads exported entries into an empty grid, preserving their
// relative order (fresh ordinals are assigned in slice order). The entries
// are re-wrapped, not aliased, so the source grid — which may use a
// different geometry — is left untouched.
func (g *Grid) Import(entries []*Entry) error {
	if len(g.recs) != 0 {
		return fmt.Errorf("grid: import into non-empty grid (%d residents)", len(g.recs))
	}
	for _, e := range entries {
		if err := g.Insert(&Entry{Rec: e.Rec, Prof: e.Prof}); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the resident entry for rid, if any.
func (g *Grid) Get(rid string) (*Entry, bool) {
	e, ok := g.recs[rid]
	return e, ok
}

// Each visits every resident entry once.
func (g *Grid) Each(visit func(*Entry) bool) {
	for _, e := range g.recs {
		if !visit(e) {
			return
		}
	}
}

// CandidateStats reports how much work a Candidates call did.
type CandidateStats struct {
	CellsVisited int
	CellsPruned  int
	Emitted      int
}

// Query parameterizes a Candidates call. The Disable flags turn off
// cell-level pruning strategies for ablation studies (results are
// unchanged — pruning is safe — only cost moves).
type Query struct {
	Gamma        float64
	DisableTopic bool
	DisableSim   bool
}

// Candidates streams the entries that survive cell-level pruning against
// query profile q (Theorem 4.1 at cell granularity via keyword aggregates,
// Theorem 4.2 via distance/size aggregates). Entries from other streams
// only (stream != q's stream) are emitted, each once. Tuple-level pruning
// is the caller's job.
//
//terids:hotpath
func (g *Grid) Candidates(q *prune.Profile, opt Query, visit func(*Entry) bool) CandidateStats {
	var stats CandidateStats
	qStream := q.Im.R.Stream
	g.epoch++
	epoch := g.epoch
	for _, c := range g.cells {
		stats.CellsVisited++
		if c.pruned(q, opt) {
			stats.CellsPruned++
			continue
		}
		for _, e := range c.entries {
			if e.Rec.Stream == qStream || e.stamp == epoch {
				continue
			}
			e.stamp = epoch
			stats.Emitted++
			if !visit(e) {
				return stats
			}
		}
	}
	return stats
}
