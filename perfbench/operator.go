package main

import (
	"fmt"
	"reflect"
	"slices"

	"terids/internal/core"
	"terids/internal/grid"
	"terids/internal/impute"
	"terids/internal/metrics"
	"terids/internal/prune"
	"terids/internal/rules"
	"terids/internal/stream"
	"terids/internal/tuple"
)

// counts are the exact work counters of one pass of the operator.
type counts struct {
	rules      int64 // applicable rules the CDD-indexes returned
	samples    int64 // repository samples the DR-index matched
	candidates int64 // candidates in the imputed distributions
	survivors  int64 // grid entries past the cell-level filters
	prune      metrics.PruneStats
}

// operator re-drives core.Processor.Advance from the outside — the window,
// the loops of Step.Impute and Step.Resolve, grid maintenance — so each
// layer's public call can be bracketed by a span. With verify set it also
// runs Step.Impute and Step.Resolve on every arrival and fails on any
// difference.
type operator struct {
	sh     *core.Shared
	step   *core.Step
	cfg    core.Config
	win    *stream.MultiWindow
	g      *grid.Grid
	tr     *tracer
	verify bool
	c      counts
	stepPS metrics.PruneStats // Step.Resolve's own counters (verify only)

	applicable []*rules.Rule
	hits       []hit
	survivors  []*grid.Entry
}

type hit struct {
	rule int
	smp  *tuple.Record
}

func newOperator(sh *core.Shared, cfg core.Config, tr *tracer, verify bool) (*operator, error) {
	step, err := core.NewStep(sh, cfg)
	if err != nil {
		return nil, err
	}
	cfg = step.Config()
	if cfg.TrackPruning || cfg.Ablate != (core.AblateConfig{}) || cfg.TimeSpan > 0 {
		return nil, fmt.Errorf("the re-driven operator mirrors only the default cascade over count windows")
	}
	win, err := stream.NewMultiWindow(cfg.Streams, cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	g, err := step.NewGrid()
	if err != nil {
		return nil, err
	}
	return &operator{sh: sh, step: step, cfg: cfg, win: win, g: g, tr: tr, verify: verify}, nil
}

// advance processes one arrival and returns its new pairs.
func (d *operator) advance(r *tuple.Record) ([]pair, error) {
	tr := d.tr
	root := tr.begin(spArrival, -1)
	sp := tr.begin(spPush, root)
	expired, err := d.win.Push(r)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if expired != nil {
		sp = tr.begin(spRemove, root)
		d.g.Remove(expired.RID)
		tr.end(sp)
	}

	sp = tr.begin(spImpute, root)
	im := d.impute(r, sp)
	tr.end(sp)
	sp = tr.begin(spProfile, root)
	prof := d.step.Profile(im)
	tr.end(sp)
	sp = tr.begin(spResolve, root)
	pairs := d.resolve(prof, sp)
	tr.end(sp)

	if d.verify {
		want, _ := d.step.Impute(r)
		if !reflect.DeepEqual(want.Dists, im.Dists) {
			return nil, fmt.Errorf("arrival %s: re-driven imputation differs from Step.Impute", r.RID)
		}
		if got := corePairs(d.step.Resolve(d.g, prof, &d.stepPS)); !samePairs(got, pairs) {
			return nil, fmt.Errorf("arrival %s: re-driven pairs %v, Step.Resolve %v", r.RID, pairs, got)
		}
	}

	sp = tr.begin(spInsert, root)
	err = d.g.Insert(&grid.Entry{Rec: r, Prof: prof})
	tr.end(sp)
	tr.end(root)
	return pairs, err
}

// impute is Step.Impute with the DR-index callback's AddSample calls
// deferred until the traversal returns (same samples, same order), so the
// traversal and the accumulation get separate spans.
func (d *operator) impute(r *tuple.Record, parent int32) *tuple.Imputed {
	if r.IsComplete() {
		return tuple.FromComplete(r)
	}
	tr := d.tr
	im := &tuple.Imputed{R: r, Dists: make([]tuple.AttrDist, r.D())}
	for j := 0; j < r.D(); j++ {
		if !r.IsMissing(j) {
			im.Dists[j] = tuple.Point(r.Value(j), r.Tokens(j))
			continue
		}
		sp := tr.begin(spSelect, parent)
		d.applicable = d.applicable[:0]
		d.sh.CDDIdx[j].Applicable(r, func(rule *rules.Rule) bool {
			d.applicable = append(d.applicable, rule)
			return true
		})
		tr.end(sp)

		sp = tr.begin(spMatch, parent)
		d.hits = d.hits[:0]
		d.sh.DRIdx.MatchingSamplesMulti(r, d.applicable, func(ri int, smp *tuple.Record) bool {
			d.hits = append(d.hits, hit{ri, smp})
			return true
		})
		tr.end(sp)

		sp = tr.begin(spAccumulate, parent)
		dom := d.sh.Repo.Domain(j)
		acc := impute.NewAccumulator(dom, d.sh.DomIdx[j])
		for _, h := range d.hits {
			rule := d.applicable[h.rule]
			acc.AddSample(dom.Lookup(h.smp.Value(j)), rule.DepMin, rule.DepMax)
		}
		im.Dists[j] = acc.Distribution(d.cfg.Impute)
		tr.end(sp)

		d.c.rules += int64(len(d.applicable))
		d.c.samples += int64(len(d.hits))
		d.c.candidates += int64(len(im.Dists[j].Cands))
	}
	return im
}

// resolve is Step.Resolve's cascade (no ablation, no exact attribution),
// with each Refine call as a child span of the cascade.
func (d *operator) resolve(q *prune.Profile, parent int32) []pair {
	tr := d.tr
	gamma, alpha := d.cfg.Gamma, d.cfg.Alpha
	sp := tr.begin(spCandidates, parent)
	d.survivors = d.survivors[:0]
	d.g.Candidates(q, grid.Query{Gamma: gamma}, func(e *grid.Entry) bool {
		d.survivors = append(d.survivors, e)
		return true
	})
	slices.SortFunc(d.survivors, func(a, b *grid.Entry) int { return int(a.Ord() - b.Ord()) })
	tr.end(sp)

	st := &d.c.prune
	d.c.survivors += int64(len(d.survivors))
	st.Considered += int64(len(d.survivors))
	var out []pair
	sp = tr.begin(spCascade, parent)
	for _, e := range d.survivors {
		if prune.TopicPrune(q, e.Prof) {
			st.Topic++
			continue
		}
		if prune.SimPrune(q.Bounds, e.Prof.Bounds, gamma) {
			st.SimUB++
			continue
		}
		if prune.ProbPrune(q, e.Prof, gamma, alpha) {
			st.ProbUB++
			continue
		}
		rs := tr.begin(spRefine, sp)
		res := prune.Refine(q, e.Prof, gamma, alpha)
		tr.end(rs)
		if res.PrunedEarly {
			st.InstPair++
			continue
		}
		st.Refined++
		if res.Match {
			out = append(out, newPair(q.Im.R.RID, e.Rec.RID, res.Prob))
		}
	}
	tr.end(sp)
	return out
}
