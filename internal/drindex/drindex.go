// Package drindex implements the DR-index I_R of Section 5.1: an aR-tree
// over the repository samples converted to d-dimensional points (Jaccard
// distance to the main pivot per attribute), with node aggregates carrying
// keyword vectors, auxiliary-pivot distance intervals, and token-set-size
// intervals. Given an incomplete tuple and a CDD rule, the index retrieves
// the samples satisfying the rule's determinant constraints: the converted
// coordinates give a triangle-inequality necessary condition, and real
// Jaccard distances verify candidates at the leaves. Those distances come
// from per-attribute token postings: one walk over the query value's
// postings counts its overlap with every sample, so verifying a sample is
// arithmetic rather than a set merge.
package drindex

import (
	"fmt"
	"slices"
	"sync"

	"terids/internal/agg"
	"terids/internal/artree"
	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Index is the DR-index I_R.
type Index struct {
	repo     *repository.Repository
	sel      *pivot.Selection
	keywords []tokens.ID
	nPiv     int
	tree     *artree.Tree

	// post[x] maps a token ID to the ordinals of the indexed samples whose
	// value on attribute x contains it. Ordinals are dense below nOrd; a
	// removed sample's ordinal goes to free and the next Add reuses it.
	post []map[tokens.ID][]int32
	nOrd int32
	free []int32
	// scratch pools *overlapScratch across queries.
	scratch sync.Pool
}

// entry is the aR-tree item payload: a sample and its postings ordinal.
type entry struct {
	s   *tuple.Record
	ord int32
}

// Build converts every repository sample to its d-dimensional point and
// bulk-inserts into the aR-tree. keywords drive the keyword-vector
// aggregates (bit i = keywords[i]).
func Build(repo *repository.Repository, sel *pivot.Selection, keywords []tokens.ID) (*Index, error) {
	d := repo.Schema().D()
	if len(sel.PerAttr) != d {
		return nil, fmt.Errorf("drindex: selection has %d attributes, schema %d", len(sel.PerAttr), d)
	}
	nPiv := 1 + sel.MaxAux()
	ix := &Index{
		repo:     repo,
		sel:      sel,
		keywords: keywords,
		nPiv:     nPiv,
		tree:     artree.New(d, agg.Merger{D: d, NPiv: nPiv, NKW: len(keywords)}),
		post:     make([]map[tokens.ID][]int32, d),
	}
	for x := range ix.post {
		ix.post[x] = make(map[tokens.ID][]int32)
	}
	for _, s := range repo.Samples() {
		ix.insert(s)
	}
	return ix, nil
}

// Len returns the number of indexed samples.
func (ix *Index) Len() int { return ix.tree.Len() }

// Add indexes a new complete sample (dynamic repository extension of
// Section 5.5). The sample must already be in the repository.
func (ix *Index) Add(s *tuple.Record) { ix.insert(s) }

func (ix *Index) insert(s *tuple.Record) {
	d := ix.repo.Schema().D()
	coords := make([]float64, d)
	sum := agg.NewSummary(d, ix.nPiv, len(ix.keywords))
	for x := 0; x < d; x++ {
		coords[x] = ix.sel.Convert(x, s.Tokens(x))
		sum.Size[x].Extend(s.Tokens(x).Len())
		for a := 0; a < ix.sel.NumPivots(x); a++ {
			sum.Dist[x][a].Extend(tokens.JaccardDistance(s.Tokens(x), ix.sel.PerAttr[x].Toks[a]))
		}
	}
	for i := range ix.keywords {
		if s.ContainsAnyKeyword(ix.keywords[i : i+1]) {
			sum.KW.Set(i)
		}
	}
	ord := ix.nOrd
	if n := len(ix.free); n > 0 {
		ord, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		ix.nOrd++
	}
	for x := 0; x < d; x++ {
		for _, t := range s.Tokens(x) {
			ix.post[x][t] = append(ix.post[x][t], ord)
		}
	}
	ix.tree.Insert(artree.Item{Rect: artree.Point(coords...), Data: &entry{s: s, ord: ord}, Agg: sum})
}

// Remove deletes a sample by RID, returning whether it was found.
func (ix *Index) Remove(s *tuple.Record) bool {
	d := ix.repo.Schema().D()
	coords := make([]float64, d)
	for x := 0; x < d; x++ {
		coords[x] = ix.sel.Convert(x, s.Tokens(x))
	}
	var gone *entry
	if !ix.tree.Delete(artree.Point(coords...), func(it artree.Item) bool {
		gone = it.Data.(*entry)
		return gone.s.RID == s.RID
	}) {
		return false
	}
	for x := 0; x < d; x++ {
		for _, t := range gone.s.Tokens(x) {
			ords := ix.post[x][t]
			i := slices.Index(ords, gone.ord)
			ords[i] = ords[len(ords)-1]
			if ords = ords[:len(ords)-1]; len(ords) == 0 {
				delete(ix.post[x], t)
			} else {
				ix.post[x][t] = ords
			}
		}
	}
	ix.free = append(ix.free, gone.ord)
	return true
}

// overlapScratch is one query's overlap counts: ov[x][ord] is
// |r[A_x] ∩ s[A_x]| for the sample with ordinal ord, on the attributes
// some determinant constrains (counted[x]). touched[x] lists the non-zero
// slots of ov[x], so handing the scratch back costs what counting did.
type overlapScratch struct {
	ov      [][]int32
	touched [][]int32
	counted []bool
	// Per-sample distance cache of the leaf verifier.
	dists []float64
	have  []bool
}

// countOverlaps fills a pooled scratch with r's overlap against every
// sample on each attribute a determinant of rs constrains, by walking r's
// token postings once per attribute.
func (ix *Index) countOverlaps(r *tuple.Record, rs []*rules.Rule) *overlapScratch {
	sc, _ := ix.scratch.Get().(*overlapScratch)
	if sc == nil {
		d := len(ix.post)
		sc = &overlapScratch{
			ov:      make([][]int32, d),
			touched: make([][]int32, d),
			counted: make([]bool, d),
			dists:   make([]float64, d),
			have:    make([]bool, d),
		}
	}
	for _, rule := range rs {
		for _, c := range rule.Determinants {
			x := c.Attr
			if sc.counted[x] {
				continue
			}
			sc.counted[x] = true
			if len(sc.ov[x]) < int(ix.nOrd) {
				// The old slice is all zeros; only its length is stale.
				sc.ov[x] = make([]int32, ix.nOrd)
			}
			ov, touched := sc.ov[x], sc.touched[x]
			for _, t := range r.Tokens(x) {
				for _, o := range ix.post[x][t] {
					if ov[o] == 0 {
						touched = append(touched, o)
					}
					ov[o]++
				}
			}
			sc.touched[x] = touched
		}
	}
	return sc
}

// releaseOverlaps zeroes the touched slots and returns sc to the pool; the
// caller must not use sc afterwards.
func (ix *Index) releaseOverlaps(sc *overlapScratch) {
	for x, touched := range sc.touched {
		for _, o := range touched {
			sc.ov[x][o] = 0
		}
		sc.touched[x] = touched[:0]
		sc.counted[x] = false
	}
	ix.scratch.Put(sc)
}

// QueryStats reports index work per MatchingSamples call.
type QueryStats struct {
	NodesVisited int
	NodesPruned  int
	Verified     int
	Matched      int
}

// MatchingSamples streams the repository samples satisfying rule's
// determinant constraints with respect to r (the sample-side check of
// Definition 3). The traversal prunes aR-tree nodes via the converted-space
// window implied by each constraint and via auxiliary-pivot aggregates,
// then verifies real distances on the leaves. Returning false from visit
// stops the scan. The caller must have checked rule.AppliesTo(r).
func (ix *Index) MatchingSamples(r *tuple.Record, rule *rules.Rule, visit func(*tuple.Record) bool) QueryStats {
	return ix.MatchingSamplesMulti(r, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
		return visit(s)
	})
}

type auxWin struct {
	attr int
	aux  int // pivot slot >= 1
	lo   float64
	hi   float64
}

// ruleGeometry is the per-rule query window plus aux-pivot windows.
type ruleGeometry struct {
	lo, hi []float64
	aux    []auxWin
}

func (ix *Index) geometryOf(r *tuple.Record, rule *rules.Rule) ruleGeometry {
	d := ix.repo.Schema().D()
	g := ruleGeometry{lo: make([]float64, d), hi: make([]float64, d)}
	for x := 0; x < d; x++ {
		g.lo[x], g.hi[x] = 0, 1
	}
	for _, c := range rule.Determinants {
		x := c.Attr
		switch c.Kind {
		case rules.Const:
			// Samples must equal the constant: the converted coordinate is
			// pinned, and every aux distance is pinned too.
			cc := ix.sel.Convert(x, c.Toks)
			g.lo[x], g.hi[x] = cc, cc
			for a := 1; a < ix.sel.NumPivots(x); a++ {
				da := tokens.JaccardDistance(c.Toks, ix.sel.PerAttr[x].Toks[a])
				g.aux = append(g.aux, auxWin{x, a, da, da})
			}
		case rules.Interval:
			// |dist(s,piv) - dist(r,piv)| <= dist(r[x], s[x]) <= Max.
			cr := ix.sel.Convert(x, r.Tokens(x))
			g.lo[x], g.hi[x] = clamp01(cr-c.Max), clamp01(cr+c.Max)
			for a := 1; a < ix.sel.NumPivots(x); a++ {
				da := tokens.JaccardDistance(r.Tokens(x), ix.sel.PerAttr[x].Toks[a])
				g.aux = append(g.aux, auxWin{x, a, clamp01(da - c.Max), clamp01(da + c.Max)})
			}
		}
	}
	return g
}

// nodeMayHold reports whether an aR-tree node (MBR + aggregate) can contain
// samples satisfying the rule geometry.
func (g *ruleGeometry) nodeMayHold(rect artree.Rect, sum *agg.Summary) bool {
	for x := range g.lo {
		if rect.Min[x] > g.hi[x] || rect.Max[x] < g.lo[x] {
			return false
		}
	}
	for _, w := range g.aux {
		iv := sum.Dist[w.attr][w.aux]
		if iv.IsEmpty() {
			continue
		}
		if iv.Lo > w.hi || iv.Hi < w.lo {
			return false
		}
	}
	return true
}

func (g *ruleGeometry) itemInWindow(rect artree.Rect) bool {
	for x := range g.lo {
		if rect.Min[x] > g.hi[x] || rect.Max[x] < g.lo[x] {
			return false
		}
	}
	return true
}

// MatchingSamplesMulti retrieves, in a single aR-tree traversal, the
// samples matching each of several rules with respect to r. A node is
// descended if ANY rule's window may hold samples below it; at the leaves,
// the per-attribute Jaccard distances dist(r[A_x], s[A_x]) are derived
// ONCE per sample from overlap counts and every rule is verified against
// the cached distances (a constant constraint that survived AppliesTo(r)
// pins the value to r's, i.e. distance exactly 0). The overlaps come from
// one walk over r's token postings per constrained attribute before the
// traversal, so a distance costs one division per attribute per sample,
// whatever the rule count or the value lengths — the index join's
// advantage over the per-rule repository scans of the baselines
// (Section 5.3). visit receives the rule's index in the input slice;
// returning false stops everything.
//
//terids:hotpath
func (ix *Index) MatchingSamplesMulti(r *tuple.Record, rs []*rules.Rule, visit func(ruleIdx int, s *tuple.Record) bool) QueryStats {
	var stats QueryStats
	if len(rs) == 0 {
		return stats
	}
	geoms := make([]ruleGeometry, len(rs))
	for i, rule := range rs {
		geoms[i] = ix.geometryOf(r, rule)
	}
	sc := ix.countOverlaps(r, rs)
	dists, have := sc.dists, sc.have
	ix.tree.Traverse(
		func(rect artree.Rect, a any) bool {
			stats.NodesVisited++
			if rect.Dims() == 0 {
				stats.NodesPruned++
				return false
			}
			sum := a.(*agg.Summary)
			for i := range geoms {
				if geoms[i].nodeMayHold(rect, sum) {
					return true
				}
			}
			stats.NodesPruned++
			return false
		},
		func(it artree.Item) bool {
			e := it.Data.(*entry)
			for x := range have {
				have[x] = false
			}
			stats.Verified++
			for i := range geoms {
				// No per-geometry window recheck: the cached-distance
				// verification below is exact and cheaper than d float
				// comparisons per geometry.
				matched := true
				for _, c := range rs[i].Determinants {
					x := c.Attr
					if !have[x] {
						ov := int(sc.ov[x][e.ord])
						dists[x] = 1 - tokens.JaccardFromOverlap(ov, r.Tokens(x).Len(), e.s.Tokens(x).Len())
						have[x] = true
					}
					switch c.Kind {
					case rules.Const:
						// AppliesTo(r) established r[A_x] == const, so the
						// sample matches iff it equals r's value.
						if dists[x] != 0 {
							matched = false
						}
					case rules.Interval:
						if dists[x] < c.Min || dists[x] > c.Max {
							matched = false
						}
					}
					if !matched {
						break
					}
				}
				if matched {
					stats.Matched++
					if !visit(i, e.s) {
						return false
					}
				}
			}
			return true
		},
	)
	ix.releaseOverlaps(sc)
	return stats
}

// RootSummary exposes the whole-repository aggregate (used by the join to
// derive coarse bounds before descending).
func (ix *Index) RootSummary() *agg.Summary {
	return ix.tree.RootAgg().(*agg.Summary)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
