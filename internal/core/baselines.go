package core

import (
	"fmt"
	"sort"

	"terids/internal/grid"
	"terids/internal/impute"
	"terids/internal/metrics"
	"terids/internal/prune"
	"terids/internal/rules"
	"terids/internal/stream"
	"terids/internal/tuple"
)

// BaselineKind selects one of the Section 6.1 competitors.
type BaselineKind int

// The five baselines plus the straightforward reference method.
const (
	// IjGER imputes via CDD rules with the CDD-index but scans R for
	// samples, then resolves through an ER-grid (indexes used, no 3-way
	// join).
	IjGER BaselineKind = iota
	// CDDER imputes via CDD rules without any index, then resolves by
	// scanning the whole window.
	CDDER
	// DDER imputes via classic DD rules (cumulative intervals).
	DDER
	// ErER imputes via editing rules only.
	ErER
	// ConER imputes from the stream window itself (constraint-based).
	ConER
	// Naive is the straightforward method of Section 2.3: unindexed CDD
	// imputation plus exhaustive exact ER. Its result set is the ground
	// truth the optimized methods must reproduce.
	Naive
)

// String implements fmt.Stringer.
func (k BaselineKind) String() string {
	switch k {
	case IjGER:
		return "Ij+GER"
	case CDDER:
		return "CDD+ER"
	case DDER:
		return "DD+ER"
	case ErER:
		return "er+ER"
	case ConER:
		return "con+ER"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("BaselineKind(%d)", int(k))
	}
}

// Baseline is a Section 6.1 competitor: a pluggable imputer followed by
// either a window-scan ER or (for Ij+GER) a grid-backed ER.
type Baseline struct {
	kind    BaselineKind
	sh      *Shared
	cfg     Config
	imputer impute.Imputer
	windows *stream.MultiWindow
	// profiles holds the imputed profile of every live tuple.
	profiles map[string]*prune.Profile
	// order keeps live RIDs per stream for deterministic scans.
	order   [][]string
	g       *grid.Grid // Ij+GER only
	results *ResultSet

	breakdown metrics.Breakdown
	pruneStat metrics.PruneStats
}

// NewBaseline constructs a competitor over the same Shared offline state as
// the TER-iDS processor.
func NewBaseline(sh *Shared, cfg Config, kind BaselineKind) (*Baseline, error) {
	if err := cfg.Validate(sh.Schema.D()); err != nil {
		return nil, err
	}
	mw, err := stream.NewMultiWindow(cfg.Streams, cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	b := &Baseline{
		kind:     kind,
		sh:       sh,
		cfg:      cfg,
		windows:  mw,
		profiles: make(map[string]*prune.Profile),
		order:    make([][]string, cfg.Streams),
		results:  NewResultSet(),
	}
	switch kind {
	case IjGER:
		nPiv := 1 + sh.Sel.MaxAux()
		g, err := grid.New(sh.Schema.D(), cfg.CellsPerDim, nPiv, len(sh.Keywords))
		if err != nil {
			return nil, err
		}
		b.g = g
		b.imputer = newIndexSelectedImputer(sh, cfg, &b.breakdown)
	case CDDER, Naive:
		b.imputer = impute.NewRuleImputer(kind.String(), sh.Repo, sh.Rules, cfg.Impute).
			WithBreakdown(&b.breakdown)
	case DDER:
		b.imputer = impute.NewRuleImputer("DD", sh.Repo, sh.DDRules, cfg.Impute).
			WithBreakdown(&b.breakdown)
	case ErER:
		b.imputer = impute.NewRuleImputer("er", sh.Repo, sh.EdRules, cfg.Impute).
			WithBreakdown(&b.breakdown)
	case ConER:
		b.imputer = impute.NewStreamImputer(b.windowSnapshot, cfg.Impute)
	default:
		return nil, fmt.Errorf("core: unknown baseline kind %d", kind)
	}
	return b, nil
}

func (b *Baseline) windowSnapshot() []*tuple.Record {
	var out []*tuple.Record
	b.windows.Each(func(r *tuple.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Name implements Resolver.
func (b *Baseline) Name() string { return b.kind.String() }

// Results implements Resolver.
func (b *Baseline) Results() *ResultSet { return b.results }

// Breakdown implements Resolver.
func (b *Baseline) Breakdown() metrics.Breakdown { return b.breakdown }

// PruneStats implements Resolver (non-zero only for Ij+GER, which prunes
// through its grid).
func (b *Baseline) PruneStats() metrics.PruneStats { return b.pruneStat }

// Advance implements Resolver.
func (b *Baseline) Advance(r *tuple.Record) ([]Pair, error) {
	if r.Schema() != b.sh.Schema {
		return nil, fmt.Errorf("core: record %s uses a foreign schema", r.RID)
	}
	expired, err := b.windows.Push(r)
	if err != nil {
		return nil, err
	}
	if expired != nil {
		delete(b.profiles, expired.RID)
		b.dropFromOrder(expired)
		if b.g != nil {
			b.g.Remove(expired.RID)
		}
		b.results.RemoveRID(expired.RID)
	}

	var sw metrics.Stopwatch
	sw.Start()
	im := b.imputer.Impute(r)
	if b.kind == ConER {
		// The stream imputer cannot split select/impute phases itself.
		b.breakdown.Impute += sw.Lap()
	}
	sw.Start()
	prof := prune.BuildProfile(im, b.sh.Sel, b.sh.KeywordIDs)

	var pairs []Pair
	if b.g != nil {
		pairs = b.resolveGrid(prof)
		if err := b.g.Insert(&grid.Entry{Rec: r, Prof: prof}); err != nil {
			return nil, err
		}
	} else {
		pairs = b.resolveScan(prof)
	}
	b.breakdown.ER += sw.Lap()

	b.profiles[r.RID] = prof
	b.order[r.Stream] = append(b.order[r.Stream], r.RID)
	for _, p := range pairs {
		b.results.Add(p)
	}
	return pairs, nil
}

func (b *Baseline) dropFromOrder(r *tuple.Record) {
	lst := b.order[r.Stream]
	for i, rid := range lst {
		if rid == r.RID {
			b.order[r.Stream] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// resolveScan is the unindexed ER of the non-topic-aware baselines: every
// live other-stream tuple is checked with the exact Equation 2 probability
// over ALL instance pairs (full ER; topic filtering only decides what is
// reported, not what is computed) — the cost profile the paper attributes
// to CDD+ER, DD+ER, er+ER, and con+ER.
func (b *Baseline) resolveScan(q *prune.Profile) []Pair {
	var out []Pair
	qStream := q.Im.R.Stream
	for s := 0; s < b.cfg.Streams; s++ {
		if s == qStream {
			continue
		}
		for _, rid := range b.order[s] {
			prof := b.profiles[rid]
			p := prune.ExactProbabilityFullER(q, prof, b.cfg.Gamma)
			if p > b.cfg.Alpha {
				out = append(out, newPair(q.Im.R, prof.Im.R, p))
			}
		}
	}
	return out
}

// resolveGrid is Ij+GER's ER: grid candidates plus the pruning cascade,
// identical to the TER-iDS refinement.
func (b *Baseline) resolveGrid(q *prune.Profile) []Pair {
	var out []Pair
	var survivors []*grid.Entry
	b.g.Candidates(q, grid.Query{Gamma: b.cfg.Gamma}, func(e *grid.Entry) bool {
		survivors = append(survivors, e)
		return true
	})
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].Rec.RID < survivors[j].Rec.RID })
	for _, e := range survivors {
		b.pruneStat.Considered++
		if prune.TopicPrune(q, e.Prof) {
			b.pruneStat.Topic++
			continue
		}
		if prune.SimPrune(q.Bounds, e.Prof.Bounds, b.cfg.Gamma) {
			b.pruneStat.SimUB++
			continue
		}
		if prune.ProbPrune(q, e.Prof, b.cfg.Gamma, b.cfg.Alpha) {
			b.pruneStat.ProbUB++
			continue
		}
		res := prune.Refine(q, e.Prof, b.cfg.Gamma, b.cfg.Alpha)
		if res.PrunedEarly {
			b.pruneStat.InstPair++
			continue
		}
		b.pruneStat.Refined++
		if res.Match {
			out = append(out, newPair(q.Im.R, e.Rec, res.Prob))
		}
	}
	return out
}

// indexSelectedImputer is Ij+GER's imputation: the same indexes TER-iDS
// uses (CDD-index for rule selection, DR-index for sample retrieval), but
// driven sequentially — one index query per rule — instead of TER-iDS's
// batched 3-way join that shares one DR-index traversal and one set of
// per-attribute distances across all applicable rules.
type indexSelectedImputer struct {
	sh        *Shared
	cfg       Config
	breakdown *metrics.Breakdown
}

func newIndexSelectedImputer(sh *Shared, cfg Config, b *metrics.Breakdown) *indexSelectedImputer {
	return &indexSelectedImputer{sh: sh, cfg: cfg, breakdown: b}
}

// Name implements impute.Imputer.
func (ii *indexSelectedImputer) Name() string { return "Ij" }

// Impute implements impute.Imputer.
func (ii *indexSelectedImputer) Impute(r *tuple.Record) *tuple.Imputed {
	if r.IsComplete() {
		return tuple.FromComplete(r)
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
		ii.sh.CDDIdx[j].Applicable(r, func(rule *rules.Rule) bool {
			applicable = append(applicable, rule)
			return true
		})
		ii.breakdown.Select += sw.Lap()

		dom := ii.sh.Repo.Domain(j)
		acc := impute.NewAccumulator(dom, ii.sh.DomIdx[j])
		ii.sh.DRIdx.MatchingSamplesMulti(r, applicable, func(ri int, s *tuple.Record) bool {
			acc.AddSample(dom.Lookup(s.Value(j)), applicable[ri].DepMin, applicable[ri].DepMax)
			return true
		})
		im.Dists[j] = acc.Distribution(ii.cfg.Impute)
		ii.breakdown.Impute += sw.Lap()
	}
	return im
}
