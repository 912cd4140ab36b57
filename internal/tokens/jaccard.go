package tokens

// Jaccard returns the Jaccard similarity |s ∩ t| / |s ∪ t| between two token
// sets (Definition 5). Two empty sets are defined to be identical, with
// similarity 1, so that Jaccard distance stays a metric on the empty set.
//
//terids:hotpath
func Jaccard(s, t Set) float64 {
	if len(s) == 0 && len(t) == 0 {
		return 1
	}
	inter := s.IntersectSize(t)
	union := len(s) + len(t) - inter
	return float64(inter) / float64(union)
}

// JaccardFromOverlap returns the Jaccard similarity of two sets of sizes n
// and m that share inter tokens. It evaluates the same expression as
// Jaccard, so a caller that counts overlaps some other way (the DR-index's
// token postings) gets bit-identical results; two empty sets yield 1.
//
//terids:hotpath
func JaccardFromOverlap(inter, n, m int) float64 {
	if n == 0 && m == 0 {
		return 1
	}
	return float64(inter) / float64(n+m-inter)
}

// JaccardDistance returns 1 − Jaccard(s, t). It is a metric on token sets
// (the Jaccard/Tanimoto distance), in particular it satisfies the triangle
// inequality used by the pivot-based bounds of Section 4.
func JaccardDistance(s, t Set) float64 {
	return 1 - Jaccard(s, t)
}

// SimUpperBoundBySize returns the largest possible Jaccard similarity
// between a set of size n and a set of size m: min(n,m)/max(n,m). It backs
// Lemma 4.1 (similarity upper bound via token set size). Two empty sets
// yield 1.
func SimUpperBoundBySize(n, m int) float64 {
	if n == 0 && m == 0 {
		return 1
	}
	if n > m {
		n, m = m, n
	}
	return float64(n) / float64(m)
}

// SimUpperBoundBySizeInterval generalizes SimUpperBoundBySize to size
// intervals [nMin, nMax] and [mMin, mMax] following Lemma 4.1: if the
// smallest possible size of one side exceeds the largest possible size of
// the other, the ratio bounds the similarity; otherwise the bound is 1.
func SimUpperBoundBySizeInterval(nMin, nMax, mMin, mMax int) float64 {
	switch {
	case nMin > mMax:
		return float64(mMax) / float64(nMin)
	case nMax < mMin:
		return float64(nMax) / float64(mMin)
	default:
		return 1
	}
}

// MinDistByPivot returns the smallest possible Jaccard distance between two
// values whose distances to a common pivot lie in [lbX, ubX] and [lbY, ubY]
// respectively (Lemma 4.2, via the triangle inequality).
func MinDistByPivot(lbX, ubX, lbY, ubY float64) float64 {
	switch {
	case lbX > ubY:
		return lbX - ubY
	case lbY > ubX:
		return lbY - ubX
	default:
		return 0
	}
}
