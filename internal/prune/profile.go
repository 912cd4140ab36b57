// Package prune implements the four pruning strategies of Section 4: topic
// keyword pruning (Theorem 4.1), similarity upper bound pruning via token
// set sizes and via pivots (Theorem 4.2, Lemmas 4.1/4.2), probability upper
// bound pruning via the Paley–Zygmund inequality (Theorem 4.3, Lemma 4.3),
// and instance-pair-level pruning during refinement (Theorem 4.4).
package prune

import (
	"terids/internal/agg"
	"terids/internal/bitvec"
	"terids/internal/pivot"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Bounds summarizes what the pruning rules need about one side of a pair:
// per-attribute distance intervals to every pivot and token-set size
// intervals. Both imputed-tuple profiles and ER-grid cell aggregates
// provide Bounds.
type Bounds struct {
	// Dist[x][a] bounds dist(value, piv_a[A_x]) over the summarized values
	// (a = 0 is the main pivot).
	Dist [][]agg.Interval
	// Size[x] bounds |T(value)|.
	Size []agg.IntInterval
}

// Profile precomputes, for one imputed tuple, everything the pruning rules
// and the ER-grid need: pivot distance intervals and expectations, size
// intervals, the keyword bitvector, and the cached instance enumeration.
type Profile struct {
	Im *tuple.Imputed
	Bounds
	// Exp[x][a] is E(dist(r^p[A_x], piv_a[A_x])) per the aggregate list of
	// Section 5.2.
	Exp [][]float64
	// KW has bit i set iff some candidate value contains query keyword i.
	KW bitvec.Vector
	// MayKW reports whether any instance contains any query keyword
	// (Theorem 4.1's condition).
	MayKW bool
	// Instances caches the instance enumeration of Definition 4, keyword
	// flags included.
	Instances []tuple.Instance
}

// BuildProfile computes the profile of an imputed tuple under the given
// pivot selection and query keyword IDs; bit i of KW corresponds to
// keywords[i].
func BuildProfile(im *tuple.Imputed, sel *pivot.Selection, keywords []tokens.ID) *Profile {
	d := len(im.Dists)
	p := &Profile{
		Im: im,
		Bounds: Bounds{
			Dist: make([][]agg.Interval, d),
			Size: make([]agg.IntInterval, d),
		},
		Exp: make([][]float64, d),
		KW:  bitvec.New(len(keywords)),
	}
	for x := 0; x < d; x++ {
		nPiv := sel.NumPivots(x)
		p.Dist[x] = make([]agg.Interval, nPiv)
		p.Exp[x] = make([]float64, nPiv)
		for a := 0; a < nPiv; a++ {
			p.Dist[x][a] = agg.EmptyInterval()
		}
		p.Size[x] = agg.EmptyIntInterval()
		for _, c := range im.Dists[x].Cands {
			p.Size[x].Extend(c.Toks.Len())
			for a := 0; a < nPiv; a++ {
				dist := tokens.JaccardDistance(c.Toks, sel.PerAttr[x].Toks[a])
				p.Dist[x][a].Extend(dist)
				p.Exp[x][a] += dist * c.P
			}
			for i, kw := range keywords {
				if c.Toks.Has(kw) {
					p.KW.Set(i)
				}
			}
		}
	}
	p.MayKW = p.KW.Any()
	p.Instances = im.Instances(keywords)
	return p
}

// MainBox returns the per-attribute main-pivot distance intervals as two
// coordinate slices (lo, hi) — the box the tuple occupies in the converted
// space, used by the ER-grid and DR-index queries.
func (p *Profile) MainBox() (lo, hi []float64) {
	d := len(p.Dist)
	lo = make([]float64, d)
	hi = make([]float64, d)
	for x := 0; x < d; x++ {
		iv := p.Dist[x][0]
		if iv.IsEmpty() {
			lo[x], hi[x] = 0, 1
			continue
		}
		lo[x], hi[x] = iv.Lo, iv.Hi
	}
	return lo, hi
}

// Summary converts the profile to the aggregate form stored in grid cells
// and index nodes, padded to nPiv pivot slots.
func (p *Profile) Summary(nPiv int) *agg.Summary {
	d := len(p.Dist)
	s := agg.NewSummary(d, nPiv, p.KW.Len())
	s.KW.Or(p.KW)
	for x := 0; x < d; x++ {
		for a := 0; a < nPiv && a < len(p.Dist[x]); a++ {
			s.Dist[x][a].ExtendInterval(p.Dist[x][a])
		}
		s.Size[x].ExtendInterval(p.Size[x])
	}
	return s
}
