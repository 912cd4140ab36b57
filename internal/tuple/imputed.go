package tuple

import (
	"fmt"
	"sort"

	"terids/internal/tokens"
)

// Candidate is one possible value of an (imputed) attribute together with
// its existence probability (Equations 3 and 4 of the paper).
type Candidate struct {
	Text string
	Toks tokens.Set
	P    float64
}

// AttrDist is the distribution over candidate values of a single attribute.
// A non-missing attribute is represented by a single candidate with P = 1.
type AttrDist struct {
	Cands []Candidate
}

// Point builds a single-candidate distribution (probability 1) for a known
// value.
func Point(text string, toks tokens.Set) AttrDist {
	return AttrDist{Cands: []Candidate{{Text: text, Toks: toks, P: 1}}}
}

// Normalize rescales the candidate probabilities to sum to 1. Distributions
// with zero total mass are left untouched.
func (d *AttrDist) Normalize() {
	total := 0.0
	for _, c := range d.Cands {
		total += c.P
	}
	if total <= 0 {
		return
	}
	for i := range d.Cands {
		d.Cands[i].P /= total
	}
}

// Truncate keeps only the cap most probable candidates (ties broken by
// text for determinism) and renormalizes. cap <= 0 means no truncation.
func (d *AttrDist) Truncate(cap int) {
	if cap <= 0 || len(d.Cands) <= cap {
		return
	}
	sort.Slice(d.Cands, func(i, j int) bool {
		if d.Cands[i].P != d.Cands[j].P {
			return d.Cands[i].P > d.Cands[j].P
		}
		return d.Cands[i].Text < d.Cands[j].Text
	})
	d.Cands = d.Cands[:cap]
	d.Normalize()
}

// SizeInterval returns the minimum and maximum token-set sizes over the
// candidates (|T−| and |T+| of Lemma 4.1).
func (d *AttrDist) SizeInterval() (min, max int) {
	if len(d.Cands) == 0 {
		return 0, 0
	}
	min, max = d.Cands[0].Toks.Len(), d.Cands[0].Toks.Len()
	for _, c := range d.Cands[1:] {
		if n := c.Toks.Len(); n < min {
			min = n
		} else if n > max {
			max = n
		}
	}
	return min, max
}

// Imputed is the imputed (probabilistic) version r^p of an incomplete record
// (Definition 4): one candidate distribution per attribute. Instances are
// the cross product of per-attribute candidates.
type Imputed struct {
	R     *Record
	Dists []AttrDist
}

// FromComplete wraps a record without missing attributes into its trivial
// imputed form (a single instance with probability 1). Missing attributes,
// if any, become empty-valued single candidates; callers that can impute
// should do so instead.
func FromComplete(r *Record) *Imputed {
	im := &Imputed{R: r, Dists: make([]AttrDist, r.D())}
	for j := 0; j < r.D(); j++ {
		if r.IsMissing(j) {
			im.Dists[j] = Point("", nil)
		} else {
			im.Dists[j] = Point(r.Value(j), r.Tokens(j))
		}
	}
	return im
}

// InstanceCount returns the number of instances (product of candidate
// counts).
func (im *Imputed) InstanceCount() int {
	n := 1
	for _, d := range im.Dists {
		n *= len(d.Cands)
	}
	return n
}

// Instance is one fully concrete possibility r_{i,m} of an imputed tuple,
// with its joint existence probability and a precomputed topic flag.
type Instance struct {
	// Toks holds the d token sets of this instance.
	Toks []tokens.Set
	// P is the joint existence probability r_{i,m}.p.
	P float64
	// HasKeyword caches ϖ(r_{i,m}, K) for the keyword set the instances
	// were enumerated with.
	HasKeyword bool
}

// Sim returns the Definition 5 similarity between two instances.
//
//terids:hotpath
func (a Instance) Sim(b Instance) float64 {
	if len(a.Toks) != len(b.Toks) {
		//lint:ignore hotalloc the message is built only on the way to a panic
		panic(fmt.Sprintf("tuple: instance dimension mismatch %d vs %d", len(a.Toks), len(b.Toks)))
	}
	total := 0.0
	for j := range a.Toks {
		total += tokens.Jaccard(a.Toks[j], b.Toks[j])
	}
	return total
}

// Instances enumerates all instances of the imputed tuple as the cross
// product of per-attribute candidates, computing joint probabilities and
// keyword flags against the keyword IDs. The enumeration order is
// deterministic.
func (im *Imputed) Instances(keywords []tokens.ID) []Instance {
	d := len(im.Dists)
	out := make([]Instance, 0, im.InstanceCount())
	toks := make([]tokens.Set, d)
	// kw[j] marks whether the currently chosen candidate of attribute j
	// contains a keyword.
	kw := make([]bool, d)
	var rec func(j int, p float64)
	rec = func(j int, p float64) {
		if j == d {
			inst := Instance{Toks: append([]tokens.Set(nil), toks...), P: p}
			for _, h := range kw {
				if h {
					inst.HasKeyword = true
					break
				}
			}
			out = append(out, inst)
			return
		}
		for _, c := range im.Dists[j].Cands {
			toks[j] = c.Toks
			kw[j] = c.Toks.HasAny(keywords)
			rec(j+1, p*c.P)
		}
	}
	rec(0, 1)
	return out
}

// MayContainKeyword reports whether any instance of the imputed tuple
// contains a query keyword (the condition of Theorem 4.1: if false for both
// tuples of a pair, the pair is safely pruned).
func (im *Imputed) MayContainKeyword(keywords []tokens.ID) bool {
	for _, d := range im.Dists {
		for _, c := range d.Cands {
			if c.Toks.HasAny(keywords) {
				return true
			}
		}
	}
	return false
}

// MustContainKeyword reports whether every instance contains a keyword,
// i.e. some attribute has all candidates keyword-bearing.
func (im *Imputed) MustContainKeyword(keywords []tokens.ID) bool {
	for _, d := range im.Dists {
		if len(d.Cands) == 0 {
			continue
		}
		all := true
		for _, c := range d.Cands {
			if !c.Toks.HasAny(keywords) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// SizeInterval returns the token-set size interval of attribute j over all
// candidates.
func (im *Imputed) SizeInterval(j int) (min, max int) {
	return im.Dists[j].SizeInterval()
}

// TotalMass returns the sum of instance probabilities (≤ 1 per
// Definition 4; exactly 1 after Normalize on every distribution).
func (im *Imputed) TotalMass() float64 {
	total := 1.0
	for _, d := range im.Dists {
		m := 0.0
		for _, c := range d.Cands {
			m += c.P
		}
		total *= m
	}
	return total
}
