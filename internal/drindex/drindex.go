// Package drindex implements the DR-index I_R of Section 5.1: an aR-tree
// over the repository samples converted to d-dimensional points (Jaccard
// distance to the main pivot per attribute), with node aggregates carrying
// keyword vectors, auxiliary-pivot distance intervals, and token-set-size
// intervals. Given an incomplete tuple and a CDD rule, the index retrieves
// the samples satisfying the rule's determinant constraints: the converted
// coordinates give a triangle-inequality necessary condition, and real
// Jaccard distances verify candidates at the leaves.
package drindex

import (
	"fmt"

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
	ix.tree.Insert(artree.Item{Rect: artree.Point(coords...), Data: s, Agg: sum})
}

// Remove deletes a sample by RID, returning whether it was found.
func (ix *Index) Remove(s *tuple.Record) bool {
	d := ix.repo.Schema().D()
	coords := make([]float64, d)
	for x := 0; x < d; x++ {
		coords[x] = ix.sel.Convert(x, s.Tokens(x))
	}
	return ix.tree.Delete(artree.Point(coords...), func(it artree.Item) bool {
		return it.Data.(*tuple.Record).RID == s.RID
	})
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
// the per-attribute Jaccard distances dist(r[A_x], s[A_x]) are computed
// ONCE per sample and every rule is verified against the cached distances
// (a constant constraint that survived AppliesTo(r) pins the value to
// r's, i.e. distance exactly 0). Verification therefore costs one Jaccard
// per attribute per sample — independent of the rule count — which is the
// index join's advantage over the per-rule repository scans of the
// baselines (Section 5.3). visit receives the rule's index in the input
// slice; returning false stops everything.
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
	d := ix.repo.Schema().D()
	dists := make([]float64, d)
	have := make([]bool, d)
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
			s := it.Data.(*tuple.Record)
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
						dists[x] = tokens.JaccardDistance(r.Tokens(x), s.Tokens(x))
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
					if !visit(i, s) {
						return false
					}
				}
			}
			return true
		},
	)
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
