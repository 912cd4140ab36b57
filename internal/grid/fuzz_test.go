package grid

import (
	"fmt"
	"strings"
	"testing"

	"terids/internal/pivot"
	"terids/internal/prune"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzText maps a byte to one of 32 attribute texts over five tokens; 0 is
// "!!", a present value whose token set is empty. "kw" is the query
// keyword.
func fuzzText(b int) string {
	m := b % 32
	if m == 0 {
		return "!!"
	}
	var parts []string
	for i, tok := range []string{"kw", "p", "q", "m", "n"} {
		if m&(1<<i) != 0 {
			parts = append(parts, tok)
		}
	}
	return strings.Join(parts, " ")
}

// fuzzProfile builds a small profile on stream: each attribute is complete
// or, when the input says so, imputed with 2–3 weighted candidates, so the
// entry's box can span several cells.
func fuzzProfile(in *fuzzBytes, rid string, stream int, sel *pivot.Selection, kw []tokens.ID) *prune.Profile {
	vals := []string{fuzzText(in.next()), fuzzText(in.next())}
	rec := tuple.MustRecord(schema, rid, stream, 0, vals)
	im := tuple.FromComplete(rec)
	for x := range im.Dists {
		if in.next()%3 != 0 {
			continue
		}
		var d tuple.AttrDist
		for n := 2 + in.next()%2; n > 0; n-- {
			text := fuzzText(in.next())
			d.Cands = append(d.Cands, tuple.Candidate{Text: text, Toks: tokens.Tokenize(text), P: float64(1 + in.next()%4)})
		}
		d.Normalize()
		im.Dists[x] = d
	}
	return prune.BuildProfile(im, sel, kw)
}

// FuzzGridCandidates checks the ER-grid's cell-level pruning and per-query
// dedup under Insert/Remove churn. After random churn, a random query
// against the churned grid — whose cells may hold stale aggregates and
// whose entries carry stamps from earlier queries — must emit the same set
// with the same CandidateStats as a fresh grid built by Import(Export()),
// must emit no entry twice, and must emit every other-stream resident that
// survives tuple-level Theorem 4.1 and 4.2.
func FuzzGridCandidates(f *testing.F) {
	f.Add([]byte{3, 2, 0, 9, 17, 0, 0, 1, 0, 0, 2, 0, 5, 6, 0, 3, 0, 1, 1, 30, 2, 0, 12, 0, 1, 0, 5, 0, 7, 40, 1, 0})
	f.Add([]byte{1, 1, 0, 0, 31, 3, 0, 0, 4, 8, 2, 1, 0, 6, 6, 0, 0, 2, 0, 1, 0, 3, 3, 0, 9, 1, 27, 1, 2, 0, 0, 2, 200})
	f.Add([]byte("resident churn: insert, insert, remove, query, insert, remove, query"))
	kw := tokens.New("kw")
	sel := &pivot.Selection{PerAttr: []pivot.AttrPivots{
		{Attr: 0, Texts: []string{"p q", "kw m"}, Toks: []tokens.Set{tokens.New("p", "q"), tokens.New("kw", "m")}},
		{Attr: 1, Texts: []string{"m n", "q"}, Toks: []tokens.Set{tokens.New("m", "n"), tokens.New("q")}},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%4
		g, err := New(2, n, 2, kw.Len())
		if err != nil {
			t.Fatal(err)
		}
		var live []string
		rid := 0
		for round := 1 + in.next()%4; round > 0; round-- {
			for ops := in.next() % 10; ops > 0; ops-- {
				if op := in.next(); op%3 != 0 || len(live) == 0 {
					rid++
					id := fmt.Sprintf("r%d", rid)
					prof := fuzzProfile(&in, id, op%2, sel, kw)
					e := &Entry{Rec: prof.Im.R, Prof: prof}
					if err := g.Insert(e); err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				} else {
					i := (op / 3) % len(live)
					if !g.Remove(live[i]) {
						t.Fatalf("Remove(%s) reported absent", live[i])
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			q := fuzzProfile(&in, "q", in.next()%2, sel, kw)
			opt := Query{
				Gamma:        float64(in.next()%21) / 10,
				DisableTopic: in.next()%4 == 0,
				DisableSim:   in.next()%4 == 0,
			}
			checkCandidates(t, g, n, q, opt)
		}
	})
}

func checkCandidates(t *testing.T, g *Grid, n int, q *prune.Profile, opt Query) {
	t.Helper()
	collect := func(gr *Grid) (map[string]bool, CandidateStats) {
		got := map[string]bool{}
		st := gr.Candidates(q, opt, func(e *Entry) bool {
			if got[e.Rec.RID] {
				t.Fatalf("entry %s emitted twice", e.Rec.RID)
			}
			got[e.Rec.RID] = true
			return true
		})
		return got, st
	}
	got, st := collect(g)
	fresh, err := New(g.d, n, g.nPiv, g.nKW)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Import(g.Export()); err != nil {
		t.Fatal(err)
	}
	want, wantSt := collect(fresh)
	if st != wantSt {
		t.Fatalf("churned grid stats %+v, fresh grid %+v", st, wantSt)
	}
	if len(got) != len(want) || st.Emitted != len(got) {
		t.Fatalf("churned grid emitted %d (stats %d), fresh grid %d", len(got), st.Emitted, len(want))
	}
	for rid := range want {
		if !got[rid] {
			t.Fatalf("churned grid missed %s, which the fresh grid emits", rid)
		}
	}
	g.Each(func(e *Entry) bool {
		if e.Rec.Stream == q.Im.R.Stream {
			if got[e.Rec.RID] {
				t.Fatalf("same-stream entry %s emitted", e.Rec.RID)
			}
			return true
		}
		if prune.TopicPrune(q, e.Prof) || prune.SimPrune(q.Bounds, e.Prof.Bounds, opt.Gamma) {
			return true
		}
		if !got[e.Rec.RID] {
			t.Fatalf("resident %s survives tuple-level pruning but was not emitted", e.Rec.RID)
		}
		return true
	})
}
