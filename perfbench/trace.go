package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the layer call a span brackets. Spans are recorded
// by the benchmark's own re-driven operator, around calls into each layer's
// public functions; none are recorded inside the program.
type spanName uint8

const (
	spArrival    spanName = iota // one arrival through the re-driven operator
	spPush                       // stream.MultiWindow.Push
	spRemove                     // grid.Grid.Remove of an expired tuple
	spImpute                     // the Step.Impute loop
	spSelect                     // cddindex.Index.Applicable
	spMatch                      // drindex.Index.MatchingSamplesMulti
	spAccumulate                 // impute.Accumulator.AddSample + Distribution
	spProfile                    // Step.Profile (prune.BuildProfile)
	spResolve                    // the Step.Resolve loop
	spCandidates                 // grid.Grid.Candidates + ordinal sort
	spCascade                    // prune.TopicPrune / SimPrune / ProbPrune
	spRefine                     // prune.Refine
	spInsert                     // grid.Grid.Insert
	numSpans
)

var spanNames = [numSpans]string{
	"core.arrival", "stream.push", "grid.remove", "core.impute", "cddindex.select",
	"drindex.match", "impute.accumulate", "prune.profile", "core.resolve",
	"grid.candidates", "prune.cascade", "prune.refine", "grid.insert",
}

// span is one layer call. Spans of one arrival share its index; parent is
// the enclosing span's position in the tracer, -1 for an arrival's root.
type span struct {
	name       spanName
	parent     int32
	arrival    int32
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; a nil or disabled tracer records nothing.
type tracer struct {
	on      bool
	t0      time.Time
	arrival int32
	spans   []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(n spanName, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: n, parent: parent, arrival: t.arrival, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// layerTimes sums each span name's inclusive time and self time (its
// duration minus the part its child spans cover).
func (t *tracer) layerTimes() (self, incl [numSpans]time.Duration) {
	for _, s := range t.spans {
		d := s.end - s.start
		incl[s.name] += d
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self, incl
}

// write dumps the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"arrival":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.parent, s.arrival, spanNames[s.name], s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
