package core

import (
	"slices"

	"terids/internal/grid"
	"terids/internal/impute"
	"terids/internal/metrics"
	"terids/internal/prune"
	"terids/internal/rules"
	"terids/internal/tuple"
)

// Step is the per-shard slice of the TER-iDS operator: the pure, grid-free
// pieces of Algorithm 2 (imputation via the CDD-index/DR-index join, profile
// construction, and the Section 4 pruning cascade over an ER-grid
// partition). A Step holds only read-only state — the offline Shared indexes
// and a validated Config — so one Step may be used concurrently from many
// goroutines as long as each call's grid and stats arguments are owned by
// the caller. Processor and the sharded engine are both thin drivers over
// this API, which keeps their semantics identical by construction.
type Step struct {
	sh  *Shared
	cfg Config
}

// NewStep validates cfg against the shared schema and returns the step.
func NewStep(sh *Shared, cfg Config) (*Step, error) {
	if err := cfg.Validate(sh.Schema.D()); err != nil {
		return nil, err
	}
	return &Step{sh: sh, cfg: cfg}, nil
}

// Shared returns the offline state the step resolves against.
func (s *Step) Shared() *Shared { return s.sh }

// Config returns the validated (default-filled) configuration.
func (s *Step) Config() Config { return s.cfg }

// NewGrid builds an empty ER-grid partition sized for profiles produced by
// this step (same geometry the Processor uses for its single grid).
func (s *Step) NewGrid() (*grid.Grid, error) {
	nPiv := 1 + s.sh.Sel.MaxAux()
	return grid.New(s.sh.Schema.D(), s.cfg.CellsPerDim, nPiv, len(s.sh.Keywords))
}

// Impute is the 3-way join's imputation side: CDD-index rule selection plus
// DR-index sample retrieval, accumulating candidates through the
// pivot-accelerated domain index. It reads only Shared state and returns the
// imputed tuple plus the online Select/Impute cost of this call.
func (s *Step) Impute(r *tuple.Record) (*tuple.Imputed, metrics.Breakdown) {
	var bd metrics.Breakdown
	if r.IsComplete() {
		return tuple.FromComplete(r), bd
	}
	im := &tuple.Imputed{R: r, Dists: make([]tuple.AttrDist, r.D())}
	var sw metrics.Stopwatch
	for j := 0; j < r.D(); j++ {
		if !r.IsMissing(j) {
			im.Dists[j] = tuple.Point(r.Value(j), r.Tokens(j))
			continue
		}
		sw.Start()
		var applicable []*rules.Rule
		s.sh.CDDIdx[j].Applicable(r, func(rule *rules.Rule) bool {
			applicable = append(applicable, rule)
			return true
		})
		bd.Select += sw.Lap()

		dom := s.sh.Repo.Domain(j)
		acc := impute.NewAccumulator(dom, s.sh.DomIdx[j])
		s.sh.DRIdx.MatchingSamplesMulti(r, applicable, func(ri int, smp *tuple.Record) bool {
			acc.AddSample(dom.Lookup(smp.Value(j)), applicable[ri].DepMin, applicable[ri].DepMax)
			return true
		})
		im.Dists[j] = acc.Distribution(s.cfg.Impute)
		bd.Impute += sw.Lap()
	}
	return im, bd
}

// Profile computes the pruning profile of an imputed tuple under the shared
// pivot selection and query keywords.
func (s *Step) Profile(im *tuple.Imputed) *prune.Profile {
	return prune.BuildProfile(im, s.sh.Sel, s.sh.KeywordIDs)
}

// Resolve runs the pruning cascade of Section 4 for query profile q over one
// ER-grid partition g and returns the matching pairs, accumulating pruning
// counters into stat. The pair set depends only on (q, resident profiles,
// γ, α) — never on how residents are distributed across grid partitions —
// because every pruning rule is safe: cell-level aggregates over any subset
// of residents still bound each member, so partitioning can only move cost.
func (s *Step) Resolve(g *grid.Grid, q *prune.Profile, stat *metrics.PruneStats) []Pair {
	var out []Pair
	var survivors []*grid.Entry
	g.Candidates(q, grid.Query{
		Gamma:        s.cfg.Gamma,
		DisableTopic: s.cfg.Ablate.Topic,
		DisableSim:   s.cfg.Ablate.Sim,
	}, func(e *grid.Entry) bool {
		survivors = append(survivors, e)
		return true
	})
	// Deterministic order via insertion ordinals (cheap int sort). Ordinals
	// are assigned in insertion order, so within any partition this is also
	// global arrival order — the engine's merge relies on that.
	slices.SortFunc(survivors, func(a, b *grid.Entry) int {
		return int(a.Ord() - b.Ord())
	})

	// Exact pruning attribution (Figure 4): every live other-stream tuple
	// forms one candidate pair with q. Pairs eliminated at cell level are
	// attributed to the strategy that would have eliminated them. This
	// pass costs O(live tuples), so it is gated behind TrackPruning.
	if s.cfg.TrackPruning {
		live := make(map[int64]struct{}, len(survivors))
		for _, e := range survivors {
			live[e.Ord()] = struct{}{}
		}
		g.Each(func(e *grid.Entry) bool {
			if e.Rec.Stream == q.Im.R.Stream {
				return true
			}
			stat.Considered++
			if _, ok := live[e.Ord()]; ok {
				return true
			}
			if prune.TopicPrune(q, e.Prof) {
				stat.Topic++
			} else {
				stat.SimUB++
			}
			return true
		})
	} else {
		stat.Considered += int64(len(survivors))
	}

	for _, e := range survivors {
		// Theorem 4.1.
		if !s.cfg.Ablate.Topic && prune.TopicPrune(q, e.Prof) {
			stat.Topic++
			continue
		}
		// Theorem 4.2 (size + pivot bounds).
		if !s.cfg.Ablate.Sim && prune.SimPrune(q.Bounds, e.Prof.Bounds, s.cfg.Gamma) {
			stat.SimUB++
			continue
		}
		// Theorem 4.3 (Paley-Zygmund).
		if !s.cfg.Ablate.Prob && prune.ProbPrune(q, e.Prof, s.cfg.Gamma, s.cfg.Alpha) {
			stat.ProbUB++
			continue
		}
		if s.cfg.Ablate.InstPair {
			// Ablated Theorem 4.4: full Equation 2.
			prob := prune.ExactProbability(q, e.Prof, s.cfg.Gamma)
			stat.Refined++
			if prob > s.cfg.Alpha {
				out = append(out, newPair(q.Im.R, e.Rec, prob))
			}
			continue
		}
		// Theorem 4.4 inside the refinement.
		res := prune.Refine(q, e.Prof, s.cfg.Gamma, s.cfg.Alpha)
		if res.PrunedEarly {
			stat.InstPair++
			continue
		}
		stat.Refined++
		if res.Match {
			out = append(out, newPair(q.Im.R, e.Rec, res.Prob))
		}
	}
	return out
}
