// Package repository implements the static complete data repository R of
// Section 2.2: the historical samples used to detect CDD rules and to impute
// missing attributes, together with per-attribute value domains dom(A_j) and
// pivot-accelerated distance range queries over them.
package repository

import (
	"fmt"
	"sort"

	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Repository is the static complete repository R. Samples are complete
// records sharing a schema.
type Repository struct {
	schema  *tuple.Schema
	samples []*tuple.Record
	domains []*Domain
}

// Build constructs a repository from complete samples. Incomplete samples
// are rejected: R holds only complete tuples (Section 2.2).
func Build(schema *tuple.Schema, samples []*tuple.Record) (*Repository, error) {
	if schema == nil {
		return nil, fmt.Errorf("repository: nil schema")
	}
	for _, s := range samples {
		if s.Schema() != schema {
			return nil, fmt.Errorf("repository: sample %s uses a different schema", s.RID)
		}
		if !s.IsComplete() {
			return nil, fmt.Errorf("repository: sample %s is incomplete; R must hold complete tuples", s.RID)
		}
	}
	r := &Repository{
		schema:  schema,
		samples: append([]*tuple.Record(nil), samples...),
		domains: make([]*Domain, schema.D()),
	}
	for j := 0; j < schema.D(); j++ {
		r.domains[j] = buildDomain(j, r.samples)
	}
	return r, nil
}

// Schema returns the repository schema.
func (r *Repository) Schema() *tuple.Schema { return r.schema }

// Len returns the number of samples.
func (r *Repository) Len() int { return len(r.samples) }

// Sample returns the i-th sample.
func (r *Repository) Sample(i int) *tuple.Record { return r.samples[i] }

// Samples returns the live sample slice (callers must not mutate it).
func (r *Repository) Samples() []*tuple.Record { return r.samples }

// Domain returns the value domain of attribute j.
func (r *Repository) Domain(j int) *Domain { return r.domains[j] }

// Add appends new complete samples and incrementally extends the domains.
// It supports the dynamic-repository extension of Section 5.5. Domain
// indexes built earlier do not see the new values; rebuild them after a
// batch of Adds.
func (r *Repository) Add(samples ...*tuple.Record) error {
	for _, s := range samples {
		if s.Schema() != r.schema {
			return fmt.Errorf("repository: sample %s uses a different schema", s.RID)
		}
		if !s.IsComplete() {
			return fmt.Errorf("repository: sample %s is incomplete", s.RID)
		}
	}
	for _, s := range samples {
		r.samples = append(r.samples, s)
		for j := 0; j < r.schema.D(); j++ {
			r.domains[j].add(s.Value(j), s.Tokens(j))
		}
	}
	return nil
}

// Domain is dom(A_j): the distinct values of attribute j across R with
// occurrence frequencies.
type Domain struct {
	attr   int
	values []DomainValue
	byText map[string]int
}

// DomainValue is one distinct attribute value.
type DomainValue struct {
	Text string
	Toks tokens.Set
	Freq int
}

func buildDomain(attr int, samples []*tuple.Record) *Domain {
	d := &Domain{attr: attr, byText: make(map[string]int)}
	for _, s := range samples {
		d.add(s.Value(attr), s.Tokens(attr))
	}
	return d
}

func (d *Domain) add(text string, toks tokens.Set) {
	if i, ok := d.byText[text]; ok {
		d.values[i].Freq++
		return
	}
	d.byText[text] = len(d.values)
	d.values = append(d.values, DomainValue{Text: text, Toks: toks, Freq: 1})
}

// Attr returns the attribute index this domain describes.
func (d *Domain) Attr() int { return d.attr }

// Len returns the number of distinct values.
func (d *Domain) Len() int { return len(d.values) }

// Value returns the i-th distinct value.
func (d *Domain) Value(i int) DomainValue { return d.values[i] }

// Lookup returns the index of an exact text value, or -1.
func (d *Domain) Lookup(text string) int {
	if i, ok := d.byText[text]; ok {
		return i
	}
	return -1
}

// RangeByDistance returns the indexes of all domain values whose Jaccard
// distance to from lies in [min, max], by linear scan. It is the unindexed
// reference used by the non-indexed baselines and by tests.
func (d *Domain) RangeByDistance(from tokens.Set, min, max float64) []int {
	var out []int
	for i := range d.values {
		dist := tokens.JaccardDistance(from, d.values[i].Toks)
		if dist >= min && dist <= max {
			out = append(out, i)
		}
	}
	return out
}

// Index is a pivot-ordered distance index over a domain: values sorted by
// Jaccard distance to a pivot attribute value. Range queries use the
// triangle inequality to narrow the scan window before verifying real
// distances, the same conversion trick the DR-index uses (Section 5.1).
type Index struct {
	dom   *Domain
	pivot tokens.Set
	order []int     // domain value indexes sorted by dist-to-pivot
	dists []float64 // parallel to order
}

// BuildIndex sorts the domain by distance to pivot.
func (d *Domain) BuildIndex(pivot tokens.Set) *Index {
	idx := &Index{
		dom:   d,
		pivot: pivot,
		order: make([]int, len(d.values)),
		dists: make([]float64, len(d.values)),
	}
	for i := range d.values {
		idx.order[i] = i
	}
	pd := make([]float64, len(d.values))
	for i := range d.values {
		pd[i] = tokens.JaccardDistance(pivot, d.values[i].Toks)
	}
	sort.SliceStable(idx.order, func(a, b int) bool { return pd[idx.order[a]] < pd[idx.order[b]] })
	for i, v := range idx.order {
		idx.dists[i] = pd[v]
	}
	return idx
}

// PivotDistance returns dist(value_i, pivot) for domain value i.
func (idx *Index) PivotDistance(i int) float64 {
	for pos, v := range idx.order {
		if v == i {
			return idx.dists[pos]
		}
	}
	return -1
}

// Range returns the indexes of domain values whose Jaccard distance to from
// lies in [min, max]. The pivot prefilter shrinks the verified candidate
// window: by the triangle inequality every answer v satisfies
// |dist(v,pivot) − dist(from,pivot)| <= max.
//
//terids:hotpath
func (idx *Index) Range(from tokens.Set, min, max float64) []int {
	if len(idx.order) == 0 {
		return nil
	}
	delta := tokens.JaccardDistance(from, idx.pivot)
	lo := sort.SearchFloat64s(idx.dists, delta-max)
	var out []int
	for pos := lo; pos < len(idx.order) && idx.dists[pos] <= delta+max; pos++ {
		v := idx.order[pos]
		dist := tokens.JaccardDistance(from, idx.dom.values[v].Toks)
		if dist >= min && dist <= max {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
