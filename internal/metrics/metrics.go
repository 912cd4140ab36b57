// Package metrics implements the evaluation measures of Section 6.1:
// precision/recall/F-score against ground-truth matching pairs, and the
// wall-clock breakdown of Figure 6 (online CDD selection, online imputation,
// online ER cost).
package metrics

import (
	"fmt"
	"time"
)

// PairKey identifies an unordered record pair by RIDs; Key normalizes the
// order so (a,b) == (b,a).
type PairKey struct {
	A, B string
}

// Key builds a normalized PairKey.
func Key(a, b string) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{A: a, B: b}
}

// Confusion counts true/false positives and false negatives of a returned
// pair set against ground truth.
type Confusion struct {
	TP, FP, FN int
}

// Precision returns TP/(TP+FP); 0 when nothing was returned.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN); 0 when the ground truth is empty.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall (Equation 6).
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Compare evaluates returned pairs against truth.
func Compare(returned map[PairKey]bool, truth map[PairKey]bool) Confusion {
	var c Confusion
	for k := range returned {
		if truth[k] {
			c.TP++
		} else {
			c.FP++
		}
	}
	for k := range truth {
		if !returned[k] {
			c.FN++
		}
	}
	return c
}

// Breakdown is the per-phase online cost of Figure 6.
type Breakdown struct {
	// Select is the online CDD selection cost.
	Select time.Duration
	// Impute is the online imputation cost.
	Impute time.Duration
	// ER is the online entity-resolution cost.
	ER time.Duration
}

// Total returns the summed wall-clock time.
func (b Breakdown) Total() time.Duration { return b.Select + b.Impute + b.ER }

// Add folds o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Select += o.Select
	b.Impute += o.Impute
	b.ER += o.ER
}

// String renders the breakdown for reports.
func (b Breakdown) String() string {
	return fmt.Sprintf("select=%v impute=%v er=%v total=%v", b.Select, b.Impute, b.ER, b.Total())
}

// Stopwatch measures phases with minimal ceremony.
type Stopwatch struct {
	start time.Time
}

// Start begins (or restarts) the stopwatch.
func (s *Stopwatch) Start() { s.start = time.Now() }

// Lap returns the elapsed time and restarts.
func (s *Stopwatch) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	s.start = now
	return d
}

// PruneStats counts pairs eliminated by each pruning strategy of Section 4,
// in application order, plus survivors (refined pairs). It backs Figure 4.
//
// What counts as considered depends on core.Config.TrackPruning. With it,
// every live other-stream tuple forms one considered pair with the arrival,
// and pairs the ER-grid prunes by cell are attributed to the theorem that
// prunes them: the exact Figure 4 attribution. Without it (terids-serve,
// perfbench), only pairs that survive the grid's cell-level tests are
// considered. The grid keeps keyword-free tuples in keyword-free cells, so
// Topic is then 0, and Considered and SimUB shrink as cell-level pruning
// gets finer.
type PruneStats struct {
	// Considered is the number of candidate pairs examined.
	Considered int64
	// Topic counts pairs removed by topic keyword pruning (Theorem 4.1).
	Topic int64
	// SimUB counts pairs removed by similarity upper bound pruning
	// (Theorem 4.2).
	SimUB int64
	// ProbUB counts pairs removed by probability upper bound pruning
	// (Theorem 4.3).
	ProbUB int64
	// InstPair counts pairs removed by instance-pair-level pruning
	// (Theorem 4.4).
	InstPair int64
	// Refined counts pairs whose exact probability was fully computed.
	Refined int64
}

// Add folds o into s.
func (s *PruneStats) Add(o PruneStats) {
	s.Considered += o.Considered
	s.Topic += o.Topic
	s.SimUB += o.SimUB
	s.ProbUB += o.ProbUB
	s.InstPair += o.InstPair
	s.Refined += o.Refined
}

// Power returns each strategy's pruning percentage of considered pairs and
// the total pruned percentage, as in Figure 4.
func (s PruneStats) Power() (topic, simUB, probUB, instPair, total float64) {
	if s.Considered == 0 {
		return 0, 0, 0, 0, 0
	}
	n := float64(s.Considered)
	topic = 100 * float64(s.Topic) / n
	simUB = 100 * float64(s.SimUB) / n
	probUB = 100 * float64(s.ProbUB) / n
	instPair = 100 * float64(s.InstPair) / n
	total = topic + simUB + probUB + instPair
	return
}
