package tokens

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// refSet is the reference implementation the ID sets are checked against: a
// lexicographically sorted, deduplicated []string with the obvious set
// algebra. It is what Set was before tokens were dictionary-encoded.
type refSet []string

func refNew(toks ...string) refSet {
	var out refSet
	for _, t := range toks {
		if t != "" {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (s refSet) has(tok string) bool {
	_, ok := slices.BinarySearch(s, tok)
	return ok
}

func (s refSet) intersect(o refSet) refSet {
	var out refSet
	for _, t := range s {
		if o.has(t) {
			out = append(out, t)
		}
	}
	return out
}

func (s refSet) union(o refSet) refSet {
	return refNew(append(slices.Clone(s), o...)...)
}

func (s refSet) jaccard(o refSet) float64 {
	if len(s) == 0 && len(o) == 0 {
		return 1
	}
	inter := len(s.intersect(o))
	return float64(inter) / float64(len(s)+len(o)-inter)
}

// splitTokens turns fuzz input into a raw token list: comma-separated,
// with empty tokens kept so that New has to drop them.
func splitTokens(s string) []string { return strings.Split(s, ",") }

// checkSame fails unless got holds exactly the reference tokens, in
// ascending ID order.
func checkSame(t *testing.T, op string, got Set, want refSet) {
	t.Helper()
	if !slices.Equal(got.Texts(), []string(want)) {
		t.Fatalf("%s = %q, want %q", op, got.Texts(), want)
	}
	if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
		t.Fatalf("%s = %v is not strictly ascending", op, []ID(got))
	}
}

// FuzzSetOps builds ID sets from arbitrary token lists and requires every
// set operation to agree with the []string reference implementation above.
func FuzzSetOps(f *testing.F) {
	f.Add("a,b,c", "b,c,d", "c")
	f.Add("", "", "")
	f.Add("x,x,,x", "x", "y")
	f.Add("database,streaming", "learning,database,database", "streaming")
	f.Add("ünïcode,tökens,a1", "A1,a1", "zz")
	f.Fuzz(func(t *testing.T, as, bs, probe string) {
		// Tokenize every input once up front, in an order that differs
		// from the lexicographic one, so IDs and text order disagree.
		Tokenize(bs + " " + as + " " + probe)
		at, bt := splitTokens(as), splitTokens(bs)
		a, b := New(at...), New(bt...)
		ra, rb := refNew(at...), refNew(bt...)

		checkSame(t, "New(a)", a, ra)
		checkSame(t, "New(b)", b, rb)
		checkSame(t, "Union", a.Union(b), ra.union(rb))
		checkSame(t, "Intersect", a.Intersect(b), ra.intersect(rb))
		checkSame(t, "Clone", a.Clone(), ra)
		if got, want := a.IntersectSize(b), len(ra.intersect(rb)); got != want {
			t.Fatalf("IntersectSize = %d, want %d", got, want)
		}
		if got, want := a.UnionSize(b), len(ra.union(rb)); got != want {
			t.Fatalf("UnionSize = %d, want %d", got, want)
		}
		if got, want := Jaccard(a, b), ra.jaccard(rb); got != want {
			t.Fatalf("Jaccard = %v, want %v", got, want)
		}
		if got, want := JaccardDistance(a, b), 1-ra.jaccard(rb); got != want {
			t.Fatalf("JaccardDistance = %v, want %v", got, want)
		}
		if got, want := JaccardFromOverlap(len(ra.intersect(rb)), len(ra), len(rb)), ra.jaccard(rb); got != want {
			t.Fatalf("JaccardFromOverlap = %v, want %v", got, want)
		}
		if got, want := a.ContainsAny(b), len(ra.intersect(rb)) > 0; got != want {
			t.Fatalf("ContainsAny = %v, want %v", got, want)
		}
		if got, want := a.HasAny(b), len(ra.intersect(rb)) > 0; got != want {
			t.Fatalf("HasAny = %v, want %v", got, want)
		}
		if got, want := a.Equal(b), slices.Equal(ra, rb); got != want {
			t.Fatalf("Equal = %v, want %v", got, want)
		}
		if got, want := a.Contains(probe), ra.has(probe); got != want {
			t.Fatalf("Contains(%q) = %v, want %v", probe, got, want)
		}
		if got, want := a.String(), strings.Join(ra, " "); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		for _, tok := range ra {
			id, ok := Lookup(tok)
			if !ok || Text(id) != tok || !a.Has(id) {
				t.Fatalf("Lookup/Text/Has disagree on %q", tok)
			}
		}
		want := refNew(strings.FieldsFunc(strings.ToLower(as), func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		})...)
		checkSame(t, "Tokenize", Tokenize(as), want)
	})
}
