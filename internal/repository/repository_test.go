package repository

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("A", "B")

func sample(rid, a, b string) *tuple.Record {
	return tuple.MustRecord(schema, rid, 0, 0, []string{a, b})
}

func TestBuild(t *testing.T) {
	r, err := Build(schema, []*tuple.Record{
		sample("s1", "alpha beta", "one"),
		sample("s2", "alpha beta", "two"),
		sample("s3", "gamma", "one"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	d := r.Domain(0)
	if d.Len() != 2 {
		t.Fatalf("domain A has %d values, want 2", d.Len())
	}
	i := d.Lookup("alpha beta")
	if i == -1 || d.Value(i).Freq != 2 {
		t.Fatalf("alpha beta lookup/freq wrong: %d", i)
	}
	if d.Lookup("nope") != -1 {
		t.Fatal("unknown value must return -1")
	}
	if r.Domain(1).Len() != 2 {
		t.Fatal("domain B must have 2 distinct values")
	}
	if r.Sample(2).RID != "s3" {
		t.Fatal("Sample order must be preserved")
	}
}

func TestBuildRejectsIncomplete(t *testing.T) {
	bad := tuple.MustRecord(schema, "x", 0, 0, []string{"a", "-"})
	if _, err := Build(schema, []*tuple.Record{bad}); err == nil {
		t.Fatal("incomplete sample must be rejected")
	}
	if _, err := Build(nil, nil); err == nil {
		t.Fatal("nil schema must be rejected")
	}
	other := tuple.MustSchema("A", "B")
	mismatched := tuple.MustRecord(other, "y", 0, 0, []string{"a", "b"})
	if _, err := Build(schema, []*tuple.Record{mismatched}); err == nil {
		t.Fatal("foreign-schema sample must be rejected")
	}
}

func TestAdd(t *testing.T) {
	r, err := Build(schema, []*tuple.Record{sample("s1", "v1", "w1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(sample("s2", "v1", "w2")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d after Add, want 2", r.Len())
	}
	d := r.Domain(0)
	if d.Len() != 1 || d.Value(0).Freq != 2 {
		t.Fatal("Add must update domain frequencies")
	}
	if err := r.Add(tuple.MustRecord(schema, "bad", 0, 0, []string{"-", "x"})); err == nil {
		t.Fatal("Add must reject incomplete samples")
	}
}

func TestRangeByDistance(t *testing.T) {
	r, err := Build(schema, []*tuple.Record{
		sample("s1", "a b c", "x"),
		sample("s2", "a b d", "x"),
		sample("s3", "p q r", "x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := r.Domain(0)
	from := tokens.New("a", "b", "c")
	// dist to "a b c" = 0, to "a b d" = 1 - 2/4 = 0.5, to "p q r" = 1.
	got := d.RangeByDistance(from, 0, 0.6)
	if len(got) != 2 {
		t.Fatalf("RangeByDistance = %v, want 2 hits", got)
	}
	got = d.RangeByDistance(from, 0.4, 0.6)
	if len(got) != 1 || d.Value(got[0]).Text != "a b d" {
		t.Fatalf("narrow range = %v", got)
	}
}

func randomValue(r *rand.Rand) string {
	n := 1 + r.Intn(5)
	out := ""
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("t%d ", r.Intn(15))
	}
	return out
}

func TestIndexMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var recs []*tuple.Record
	for i := 0; i < 120; i++ {
		recs = append(recs, sample(fmt.Sprintf("s%d", i), randomValue(r), "x"))
	}
	repo, err := Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	d := repo.Domain(0)
	pivot := tokens.Tokenize(randomValue(r))
	idx := d.BuildIndex(pivot)
	for trial := 0; trial < 200; trial++ {
		from := tokens.Tokenize(randomValue(r))
		min := r.Float64() * 0.5
		max := min + r.Float64()*0.5
		want := d.RangeByDistance(from, min, max)
		got := idx.Range(from, min, max)
		sort.Ints(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Range(min=%v,max=%v) = %v, want %v", trial, min, max, got, want)
		}
	}
}

func TestIndexEmptyDomain(t *testing.T) {
	repo, err := Build(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := repo.Domain(0).BuildIndex(tokens.New("p"))
	if got := idx.Range(tokens.New("q"), 0, 1); got != nil {
		t.Fatalf("empty index Range = %v, want nil", got)
	}
}

// TestRangeOfConcurrent fills and reads the RangeOf memo from 8 goroutines
// at once, each over its own shuffle of the same keys, so most keys are
// first asked concurrently. Every answer must equal the linear scan, and a
// repeated key must come back as the memoized slice itself.
func TestRangeOfConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var recs []*tuple.Record
	for i := 0; i < 150; i++ {
		recs = append(recs, sample(fmt.Sprintf("s%d", i), randomValue(r), "x"))
	}
	repo, err := Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	d := repo.Domain(0)
	idx := d.BuildIndex(tokens.Tokenize(randomValue(r)))
	type key struct {
		v        int
		min, max float64
	}
	intervals := [][2]float64{{0, 0}, {0, 0.3}, {0.2, 0.6}, {0.5, 1}, {0, 1}, {1, 1}}
	var keys []key
	for v := 0; v < d.Len(); v++ {
		for _, iv := range intervals {
			keys = append(keys, key{v, iv[0], iv[1]})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := append([]key(nil), keys...)
		rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range order {
				got := idx.RangeOf(k.v, k.min, k.max)
				want := d.RangeByDistance(d.Value(k.v).Toks, k.min, k.max)
				if !slices.Equal(got, want) {
					t.Errorf("RangeOf(%d, %v, %v) = %v, want %v", k.v, k.min, k.max, got, want)
					return
				}
				if again := idx.RangeOf(k.v, k.min, k.max); len(got) > 0 && &again[0] != &got[0] {
					t.Errorf("RangeOf(%d, %v, %v) recomputed a memoized key", k.v, k.min, k.max)
					return
				}
			}
		}()
	}
	wg.Wait()
}
