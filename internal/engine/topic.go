package engine

import (
	"terids/internal/prune"
	"terids/internal/tuple"
)

// Shard assignment is pure load placement: resolution broadcasts every
// query to all shards, so result correctness never depends on where a tuple
// resides. Routing by topic keeps tuples about the same subject co-located,
// which concentrates the surviving candidate pairs of topic-heavy queries
// in few shards and lets the other shards cell-prune cheaply.
//
// The dominant topic of a tuple is the query keyword carrying the highest
// probability mass across the imputed candidate distributions (sum of
// candidate existence probabilities of keyword-bearing candidates). Tuples
// whose topic distribution straddles shards — two keywords with comparable
// mass assigned to different shards — take the broadcast-residency path and
// are inserted into every shard (the merger dedups their emissions).
// Keyword-free tuples hash on their RID, spreading the topic-neutral bulk
// uniformly.
//
// The placement is fixed for the engine's life: shard = fnv32a(topic or
// RID) % K. K never changes on a live engine (a follower's ApplyCheckpoint
// keeps its own K), so each keyword's shard is computed once at
// construction.

// straddleRatio: a secondary topic within this fraction of the dominant
// topic's mass makes the residency ambiguous enough to broadcast.
const straddleRatio = 0.5

// fnv32a is a tiny inline FNV-1a, deterministic across runs and platforms.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// keywordMass sums, over attributes, the candidate probability mass of
// candidates containing kw — an upper-bound style weight of how much of the
// tuple's possible-worlds mass carries this topic.
func keywordMass(im *tuple.Imputed, kw string) float64 {
	m := 0.0
	for _, d := range im.Dists {
		for _, c := range d.Cands {
			if c.Toks.Contains(kw) {
				m += c.P
			}
		}
	}
	return m
}

// internPlacement builds the interned placement tables for the engine's K:
// kwShard[i] is shared keyword i's home shard, homeSingle[sh] the shared
// single-home slice for shard sh, homeAll the shared broadcast slice.
// homeShards returns these directly, so repeated topics stop allocating per
// arrival; every consumer treats them as read-only. Called once, from
// newEngine.
func (e *Engine) internPlacement() {
	k := e.cfg.Shards
	kws := e.step.Shared().Keywords
	e.kwShard = make([]int, len(kws))
	for i, kw := range kws {
		e.kwShard[i] = int(fnv32a(kw) % uint32(k))
	}
	e.homeSingle = make([][]int, k)
	e.homeAll = make([]int, k)
	for i := 0; i < k; i++ {
		e.homeSingle[i] = []int{i}
		e.homeAll[i] = i
	}
}

// homeShards picks the grid partitions an arrival resides in. The returned
// slice aliases the engine's interned tables and must never be mutated.
//
//terids:hotpath
func (e *Engine) homeShards(prof *prune.Profile) []int {
	kws := e.step.Shared().Keywords
	var best, second float64
	bestKW, secondKW := -1, -1
	for i := range kws {
		if !prof.KW.Get(i) {
			continue
		}
		m := keywordMass(prof.Im, kws[i])
		switch {
		case m > best || (m == best && bestKW < 0):
			second, secondKW = best, bestKW
			best, bestKW = m, i
		case m > second || (m == second && secondKW < 0):
			second, secondKW = m, i
		}
	}
	if bestKW < 0 {
		// Topic-neutral tuple: uniform spread by RID.
		return e.homeSingle[fnv32a(prof.Im.R.RID)%uint32(len(e.homeSingle))]
	}
	home := e.kwShard[bestKW]
	if secondKW >= 0 && second >= straddleRatio*best && e.kwShard[secondKW] != home {
		// Straddles shards: broadcast residency.
		return e.homeAll
	}
	return e.homeSingle[home]
}
