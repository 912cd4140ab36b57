package drindex

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
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

// fuzzValue maps a byte to one of 16 attribute texts over four tokens, so
// values repeat across samples; 0 is "!!", a present value whose token set
// is empty.
func fuzzValue(b int) string {
	m := b % 16
	if m == 0 {
		return "!!"
	}
	var parts []string
	for i, tok := range []string{"ant", "bee", "cat", "dog"} {
		if m&(1<<i) != 0 {
			parts = append(parts, tok)
		}
	}
	return strings.Join(parts, " ")
}

// fuzzDist maps a byte to a distance bound in {0, 0.1, ..., 1}.
func fuzzDist(b int) float64 { return float64(b%11) / 10 }

// FuzzMatchingSamplesMulti checks the postings-based leaf verification and
// the aR-tree pruning against the definition: over a random repository
// with Add/Remove churn, the (rule, sample) pairs MatchingSamplesMulti
// reports, and its Matched count, must equal a per-rule SampleMatches scan
// over the live samples. Each index answers several rounds of churn and
// queries, so pooled overlap scratch and reused ordinals carry state from
// one query to the next.
func FuzzMatchingSamplesMulti(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 3, 17, 2, 0, 10})
	f.Add([]byte{11, 0, 0, 0, 16, 16, 16, 3, 3, 3, 7, 8, 9, 1, 2, 2, 5, 0, 2, 7, 4, 1, 10, 2, 3, 3})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	sch := tuple.MustSchema("A", "B", "C")
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		rid := 0
		newSample := func() *tuple.Record {
			rid++
			return tuple.MustRecord(sch, fmt.Sprintf("s%d", rid), 0, 0,
				[]string{fuzzValue(in.next()), fuzzValue(in.next()), fuzzValue(in.next())})
		}
		var live []*tuple.Record
		for n := 1 + in.next()%12; n > 0; n-- {
			live = append(live, newSample())
		}
		repo, err := repository.Build(sch, live)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := pivot.Select(repo, pivot.Config{Buckets: 4, MinEntropy: 0.5, CntMax: 1 + in.next()%3})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(repo, sel, tokens.New("ant"))
		if err != nil {
			t.Fatal(err)
		}

		type hit struct {
			rule int
			rid  string
		}
		cmp := func(a, b hit) int {
			if a.rule != b.rule {
				return a.rule - b.rule
			}
			return strings.Compare(a.rid, b.rid)
		}
		for round := 1 + in.next()%3; round > 0; round-- {
			// Churn: add new samples, remove live ones (freed ordinals are
			// reused by later adds).
			for ops := in.next() % 8; ops > 0; ops-- {
				op := in.next()
				if op%2 == 0 || len(live) == 0 {
					s := newSample()
					if err := repo.Add(s); err != nil {
						t.Fatal(err)
					}
					ix.Add(s)
					live = append(live, s)
					continue
				}
				i := op / 2 % len(live)
				if !ix.Remove(live[i]) {
					t.Fatalf("Remove(%s) found nothing", live[i].RID)
				}
				live = slices.Delete(live, i, i+1)
			}
			if ix.Len() != len(live) {
				t.Fatalf("Len = %d, want %d live samples", ix.Len(), len(live))
			}

			q := tuple.MustRecord(sch, "q", 0, 0,
				[]string{fuzzValue(in.next()), fuzzValue(in.next()), tuple.Missing})
			var rs []*rules.Rule
			for n := 1 + in.next()%4; n > 0; n-- {
				rule := &rules.Rule{Kind: rules.KindCDD, Dependent: 2, DepMax: 1}
				for x := 0; x < 2; x++ {
					switch k := in.next(); k % 3 {
					case 1:
						// Usually q's own value, so the rule applies; otherwise
						// AppliesTo filters the rule out below.
						v := q.Value(x)
						if k%9 == 7 {
							v = fuzzValue(in.next())
						}
						rule.Determinants = append(rule.Determinants, rules.Constraint{
							Attr: x, Kind: rules.Const, Value: v, Toks: tokens.Tokenize(v),
						})
					case 2:
						lo := fuzzDist(in.next())
						hi := min(1, lo+fuzzDist(in.next()))
						rule.Determinants = append(rule.Determinants, rules.Constraint{
							Attr: x, Kind: rules.Interval, Min: lo, Max: hi,
						})
					}
				}
				if rule.AppliesTo(q) {
					rs = append(rs, rule)
				}
			}
			var got, want []hit
			st := ix.MatchingSamplesMulti(q, rs, func(i int, s *tuple.Record) bool {
				got = append(got, hit{i, s.RID})
				return true
			})
			for i, rule := range rs {
				for _, s := range live {
					if rule.SampleMatches(q, s) {
						want = append(want, hit{i, s.RID})
					}
				}
			}
			slices.SortFunc(got, cmp)
			slices.SortFunc(want, cmp)
			if !slices.Equal(got, want) {
				t.Fatalf("MatchingSamplesMulti = %v, per-rule scan = %v", got, want)
			}
			if st.Matched != len(want) {
				t.Fatalf("QueryStats.Matched = %d, want %d", st.Matched, len(want))
			}
		}
	})
}
