// Package tokens implements token sets over textual attribute values and
// the Jaccard similarity/distance used throughout TER-iDS (Definition 5 of
// the paper). Tokens are interned in a process-wide dictionary (see ID) and
// a set is a sorted, deduplicated slice of IDs, so set operations are
// linear merge scans over integers.
package tokens

import (
	"slices"
	"strings"
	"unicode"
)

// Set is a collection of tokens, stored as IDs in ascending ID order without
// duplicates. ID order is not the lexicographic order of the texts; String
// and Texts restore that for display. The zero value is an empty set ready
// to use.
type Set []ID

// Tokenize splits a textual attribute value into a token set. Tokens are
// lower-cased maximal runs of letters and digits; everything else is a
// separator. An empty or all-separator string yields an empty set.
func Tokenize(s string) Set {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	return New(fields...)
}

// New builds a Set from raw tokens, interning, sorting and deduplicating
// them. Empty tokens are dropped.
func New(toks ...string) Set {
	if len(toks) == 0 {
		return nil
	}
	ids := internAll(toks, make([]ID, 0, len(toks)))
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	return Set(slices.Compact(ids))
}

// Len reports the number of tokens in the set.
func (s Set) Len() int { return len(s) }

// Has reports whether the token with ID id is a member of the set.
func (s Set) Has(id ID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// Contains reports whether tok is a member of the set. A token that was
// never interned belongs to no set.
func (s Set) Contains(tok string) bool {
	id, ok := Lookup(tok)
	return ok && s.Has(id)
}

// HasAny reports whether any of ids is a member of s. The IDs may come in
// any order, such as query keywords kept in keyword order.
//
//terids:hotpath
func (s Set) HasAny(ids []ID) bool {
	for _, id := range ids {
		if s.Has(id) {
			return true
		}
	}
	return false
}

// ContainsAny reports whether any token of other appears in s. It is the
// Boolean topic function ϖ(r, K) of the problem statement when other holds
// the query keywords.
//
//terids:hotpath
func (s Set) ContainsAny(other Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			return true
		case s[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// IntersectSize returns |s ∩ other|.
//
//terids:hotpath
func (s Set) IntersectSize(other Set) int {
	i, j, n := 0, 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			n++
			i++
			j++
		case s[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// UnionSize returns |s ∪ other|.
func (s Set) UnionSize(other Set) int {
	return len(s) + len(other) - s.IntersectSize(other)
}

// Union returns a new set holding s ∪ other.
//
//terids:hotpath
func (s Set) Union(other Set) Set {
	out := make(Set, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, other[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns a new set holding s ∩ other.
//
//terids:hotpath
func (s Set) Intersect(other Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Equal reports whether the two sets hold exactly the same tokens.
//
//terids:hotpath
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Texts returns the set's tokens as text, sorted lexicographically.
func (s Set) Texts() []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = Text(id)
	}
	slices.Sort(out)
	return out
}

// String renders the set as a space-joined, lexicographically sorted token
// list.
func (s Set) String() string { return strings.Join(s.Texts(), " ") }

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}
