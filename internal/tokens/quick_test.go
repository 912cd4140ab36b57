package tokens

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSet draws a small random token set from a tiny alphabet so that
// overlaps are frequent.
func randSet(r *rand.Rand) Set {
	n := r.Intn(8)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = string(rune('a' + r.Intn(12)))
	}
	return New(toks...)
}

func TestQuickJaccardSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b := randSet(r), randSet(r)
		if Jaccard(a, b) != Jaccard(b, a) {
			t.Fatalf("Jaccard not symmetric for %v, %v", a, b)
		}
	}
}

func TestQuickJaccardRangeAndIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a, b := randSet(r), randSet(r)
		j := Jaccard(a, b)
		if j < 0 || j > 1 {
			t.Fatalf("Jaccard out of range: %v for %v, %v", j, a, b)
		}
		if a.Equal(b) && j != 1 {
			t.Fatalf("Jaccard of identical sets %v = %v, want 1", a, j)
		}
		if j == 1 && !a.Equal(b) {
			t.Fatalf("Jaccard 1 but sets differ: %v, %v", a, b)
		}
	}
}

func TestQuickJaccardTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a, b, c := randSet(r), randSet(r), randSet(r)
		dab := JaccardDistance(a, b)
		dbc := JaccardDistance(b, c)
		dac := JaccardDistance(a, c)
		if dac > dab+dbc+1e-12 {
			t.Fatalf("triangle inequality violated: d(a,c)=%v > d(a,b)+d(b,c)=%v for %v %v %v",
				dac, dab+dbc, a, b, c)
		}
	}
}

func TestQuickSizeBoundDominates(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		a, b := randSet(r), randSet(r)
		sim := Jaccard(a, b)
		if ub := SimUpperBoundBySize(a.Len(), b.Len()); sim > ub+1e-12 {
			t.Fatalf("size bound %v < actual sim %v for %v, %v", ub, sim, a, b)
		}
		if ub := SimUpperBoundBySizeInterval(a.Len(), a.Len(), b.Len(), b.Len()); sim > ub+1e-12 {
			t.Fatalf("interval size bound %v < actual sim %v for %v, %v", ub, sim, a, b)
		}
	}
}

func TestQuickPivotBoundDominates(t *testing.T) {
	// For any pivot p, 1 - MinDistByPivot(d(a,p), d(a,p), d(b,p), d(b,p))
	// must be an upper bound on Jaccard(a,b): this is exactly Lemma 4.2 on
	// a single attribute with point intervals.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		a, b, p := randSet(r), randSet(r), randSet(r)
		da := JaccardDistance(a, p)
		db := JaccardDistance(b, p)
		minDist := MinDistByPivot(da, da, db, db)
		if actual := JaccardDistance(a, b); actual < minDist-1e-12 {
			t.Fatalf("pivot lower bound %v > actual distance %v for %v, %v, pivot %v",
				minDist, actual, a, b, p)
		}
	}
}

func TestQuickUnionIntersectConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		a, b := randSet(r), randSet(r)
		u, x := a.Union(b), a.Intersect(b)
		if u.Len() != a.UnionSize(b) {
			t.Fatalf("UnionSize mismatch: %d vs %d", u.Len(), a.UnionSize(b))
		}
		if x.Len() != a.IntersectSize(b) {
			t.Fatalf("IntersectSize mismatch: %d vs %d", x.Len(), a.IntersectSize(b))
		}
		if u.Len()+x.Len() != a.Len()+b.Len() {
			t.Fatalf("|A∪B|+|A∩B| != |A|+|B| for %v, %v", a, b)
		}
		for _, id := range x {
			if !a.Has(id) || !b.Has(id) {
				t.Fatalf("intersect token %q missing from input", Text(id))
			}
		}
	}
}

func TestQuickTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Tokenize(s)
		twice := Tokenize(once.String())
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
