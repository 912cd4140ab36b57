package tokens

import (
	"slices"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"---", nil},
		{"Hello", []string{"hello"}},
		{"loss of weight", []string{"loss", "of", "weight"}},
		{"Loss, of; WEIGHT!", []string{"loss", "of", "weight"}},
		{"drug therapy, drug therapy", []string{"drug", "therapy"}},
		{"a1 b2-c3", []string{"a1", "b2", "c3"}},
		{"Ünïcode Tökens", []string{"tökens", "ünïcode"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !slices.Equal(got.Texts(), c.want) || !got.Equal(New(c.want...)) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		if c.want == nil && got != nil {
			t.Errorf("Tokenize(%q) = %#v, want nil", c.in, got)
		}
	}
}

func TestNewDedupesAndSorts(t *testing.T) {
	got := New("b", "a", "b", "", "c", "a")
	if want := []string{"a", "b", "c"}; !slices.Equal(got.Texts(), want) {
		t.Fatalf("New = %v, want %v", got.Texts(), want)
	}
	if got.Len() != 3 || !slices.IsSorted(got) {
		t.Fatalf("New = %v, want 3 IDs in ascending order", []ID(got))
	}
}

func TestNewEmpty(t *testing.T) {
	if got := New(); got != nil {
		t.Fatalf("New() = %v, want nil", got)
	}
	if got := New("", ""); got != nil {
		t.Fatalf("New(\"\",\"\") = %v, want nil", got)
	}
}

func TestContains(t *testing.T) {
	s := New("alpha", "beta", "gamma")
	if !s.Contains("beta") {
		t.Error("Contains(beta) = false, want true")
	}
	if s.Contains("delta") {
		t.Error("Contains(delta) = true, want false")
	}
	var empty Set
	if empty.Contains("x") {
		t.Error("empty.Contains(x) = true, want false")
	}
}

func TestContainsAny(t *testing.T) {
	s := New("diabetes", "vision", "blurred")
	if !s.ContainsAny(New("flu", "diabetes")) {
		t.Error("want keyword hit for diabetes")
	}
	if s.ContainsAny(New("flu", "cough")) {
		t.Error("want no keyword hit")
	}
	if s.ContainsAny(nil) {
		t.Error("empty keyword set must never hit")
	}
	var empty Set
	if empty.ContainsAny(New("x")) {
		t.Error("empty set contains nothing")
	}
}

func TestIntersectUnionSizes(t *testing.T) {
	a := New("a", "b", "c", "d")
	b := New("c", "d", "e")
	if got := a.IntersectSize(b); got != 2 {
		t.Errorf("IntersectSize = %d, want 2", got)
	}
	if got := a.UnionSize(b); got != 5 {
		t.Errorf("UnionSize = %d, want 5", got)
	}
	if got := a.IntersectSize(nil); got != 0 {
		t.Errorf("IntersectSize(nil) = %d, want 0", got)
	}
	if got := a.UnionSize(nil); got != 4 {
		t.Errorf("UnionSize(nil) = %d, want 4", got)
	}
}

func TestUnionIntersect(t *testing.T) {
	a := New("a", "c", "e")
	b := New("b", "c", "d")
	if got, want := a.Union(b), New("a", "b", "c", "d", "e"); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), New("c"); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got := a.Intersect(nil); got.Len() != 0 {
		t.Errorf("Intersect(nil) = %v, want empty", got)
	}
}

func TestEqual(t *testing.T) {
	if !New("a", "b").Equal(New("b", "a")) {
		t.Error("order must not matter")
	}
	if New("a").Equal(New("a", "b")) {
		t.Error("different sizes must differ")
	}
	var e1, e2 Set
	if !e1.Equal(e2) {
		t.Error("two empty sets are equal")
	}
}

func TestClone(t *testing.T) {
	a := New("x", "y")
	c := a.Clone()
	c[0] = Intern("z")
	if !a.Equal(New("x", "y")) {
		t.Error("Clone must be independent")
	}
	var empty Set
	if empty.Clone() != nil {
		t.Error("Clone of nil is nil")
	}
}

func TestString(t *testing.T) {
	if got := New("b", "a").String(); got != "a b" {
		t.Errorf("String = %q, want %q", got, "a b")
	}
}
