package prune

import (
	"terids/internal/tokens"
)

// TopicPrune implements Theorem 4.1: a pair is safely pruned when no
// possible instance of either tuple contains a query keyword.
//
//terids:hotpath
func TopicPrune(a, b *Profile) bool {
	return !a.MayKW && !b.MayKW
}

// attrSimUB returns the per-attribute similarity upper bound, the tighter
// of Lemma 4.1 (token-set sizes) and Lemma 4.2 (pivot triangle inequality
// over every shared pivot).
//
//terids:hotpath
func attrSimUB(a, b Bounds, x int) float64 {
	ub := 1.0
	// Lemma 4.1 via size intervals.
	sa, sb := a.Size[x], b.Size[x]
	if !sa.IsEmpty() && !sb.IsEmpty() {
		if s := tokens.SimUpperBoundBySizeInterval(sa.Lo, sa.Hi, sb.Lo, sb.Hi); s < ub {
			ub = s
		}
	}
	// Lemma 4.2 via each pivot both sides carry: each yields a lower bound
	// on the attribute distance; the largest lower bound gives the
	// tightest similarity upper bound.
	nPiv := len(a.Dist[x])
	if n := len(b.Dist[x]); n < nPiv {
		nPiv = n
	}
	for p := 0; p < nPiv; p++ {
		da, db := a.Dist[x][p], b.Dist[x][p]
		if da.IsEmpty() || db.IsEmpty() {
			continue
		}
		minDist := tokens.MinDistByPivot(da.Lo, da.Hi, db.Lo, db.Hi)
		if s := 1 - minDist; s < ub {
			ub = s
		}
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}

// SimUpperBound returns ub_sim(a, b) per Theorem 4.2: the sum over
// attributes of per-attribute upper bounds.
//
//terids:hotpath
func SimUpperBound(a, b Bounds) float64 {
	total := 0.0
	for x := range a.Dist {
		total += attrSimUB(a, b, x)
	}
	return total
}

// SimPrune implements Theorem 4.2: prune when ub_sim <= γ.
func SimPrune(a, b Bounds, gamma float64) bool {
	return SimUpperBound(a, b) <= gamma
}

// ProbUpperBound computes UB_Pr per Lemma 4.3 (Paley–Zygmund) over the main
// pivot: X = dist(a, piv), Y = dist(b, piv) summed across attributes.
// d is the dimensionality and gamma the similarity threshold.
//
//terids:hotpath
func ProbUpperBound(a, b *Profile, gamma float64) float64 {
	d := len(a.Dist)
	var eX, eY, lbX, ubX, lbY, ubY float64
	for x := 0; x < d; x++ {
		eX += a.Exp[x][0]
		eY += b.Exp[x][0]
		ia, ib := a.Dist[x][0], b.Dist[x][0]
		if ia.IsEmpty() || ib.IsEmpty() {
			return 1 // nothing known; trivial bound
		}
		lbX += ia.Lo
		ubX += ia.Hi
		lbY += ib.Lo
		ubY += ib.Hi
	}
	dg := float64(d) - gamma
	switch {
	case lbX >= ubY && eX-eY > 0 && dg >= 0 && dg <= eX-eY:
		theta := dg / (eX - eY)
		denom := ubX - lbY
		if denom <= 0 {
			return 1
		}
		return 1 - (1-theta)*(1-theta)*(eX-eY)/denom
	case lbY >= ubX && eY-eX > 0 && dg >= 0 && dg <= eY-eX:
		theta := dg / (eY - eX)
		denom := ubY - lbX
		if denom <= 0 {
			return 1
		}
		return 1 - (1-theta)*(1-theta)*(eY-eX)/denom
	default:
		return 1
	}
}

// ProbPrune implements Theorem 4.3: prune when UB_Pr <= α.
func ProbPrune(a, b *Profile, gamma, alpha float64) bool {
	return ProbUpperBound(a, b, gamma) <= alpha
}

// RefineResult reports the outcome of the instance-pair refinement.
type RefineResult struct {
	// Prob is the exact TER-iDS probability (Equation 2) when fully
	// computed; a partial sum when pruned or accepted early.
	Prob float64
	// Match reports whether Prob > alpha was established.
	Match bool
	// PrunedEarly reports whether Theorem 4.4 stopped the enumeration
	// before all instance pairs were checked.
	PrunedEarly bool
	// PairsChecked counts instance pairs actually evaluated.
	PairsChecked int
}

// Refine computes Pr_TER-iDS(a, b) (Equation 2) with the
// instance-pair-level pruning of Theorem 4.4: after each instance pair, the
// unprocessed probability mass is added optimistically; if even that bound
// cannot exceed alpha, the pair is pruned without checking the rest.
// Symmetrically, once the accumulated exact probability exceeds alpha the
// pair is accepted early.
//
//terids:hotpath
func Refine(a, b *Profile, gamma, alpha float64) RefineResult {
	var res RefineResult
	sum := 0.0       // exact probability over checked pairs
	processed := 0.0 // probability mass of checked pairs
	for _, ia := range a.Instances {
		for _, ib := range b.Instances {
			mass := ia.P * ib.P
			if (ia.HasKeyword || ib.HasKeyword) && ia.Sim(ib) > gamma {
				sum += mass
			}
			processed += mass
			res.PairsChecked++
			if sum > alpha {
				res.Prob = sum
				res.Match = true
				return res
			}
			// Theorem 4.4: optimistic bound over the remainder.
			if sum+(1-processed) <= alpha {
				res.Prob = sum
				res.PrunedEarly = true
				return res
			}
		}
	}
	res.Prob = sum
	res.Match = sum > alpha
	return res
}

// ExactProbability computes Equation 2 with no early exits; the reference
// for tests and the straightforward baseline. The topic indicator is
// checked first, skipping similarity work for non-topic instance pairs —
// an optimization only a topic-aware method can apply.
func ExactProbability(a, b *Profile, gamma float64) float64 {
	sum := 0.0
	for _, ia := range a.Instances {
		for _, ib := range b.Instances {
			if (ia.HasKeyword || ib.HasKeyword) && ia.Sim(ib) > gamma {
				sum += ia.P * ib.P
			}
		}
	}
	return sum
}

// ExactProbabilityFullER computes the same value as ExactProbability, but
// the way a non-topic-aware method must (the Section 6.1 baselines resolve
// ALL entity pairs and filter by topic afterwards): every instance pair's
// similarity is evaluated, whether or not a topic keyword is present.
func ExactProbabilityFullER(a, b *Profile, gamma float64) float64 {
	sum := 0.0
	for _, ia := range a.Instances {
		for _, ib := range b.Instances {
			if ia.Sim(ib) > gamma && (ia.HasKeyword || ib.HasKeyword) {
				sum += ia.P * ib.P
			}
		}
	}
	return sum
}
