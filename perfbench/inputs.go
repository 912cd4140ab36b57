package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/repository"
	"terids/internal/tuple"
)

// workload is one traffic mix. RATIONALE.md records why each exists and
// which end-to-end metric each layer metric should move on it.
type workload struct {
	name    string
	profile string
	scale   float64
	xi      float64 // ξ: share of stream tuples made incomplete
	m       int     // attributes each incomplete tuple loses
	eta     float64 // η: repository size relative to one pass of the stream
	w       int     // per-stream sliding window
	batch   int     // arrivals per POST /ingest
	// rate is the open-loop latency-phase rate in arrivals per second: a
	// written constant, never derived at run time. It sits at about 30% of
	// the closed-loop capacity measured on a 2-vCPU x86-64 VM, because that
	// capacity moves by a quarter across datasets and over time there; at
	// half of it the heavier datasets approach saturation.
	rate float64
	// datasets is how many generated datasets one run covers. An
	// arrival's cost depends strongly on the generated repository (its
	// rules and value skew), so a run averages its end-to-end metrics over
	// several datasets instead of resting on one draw; workloads with
	// cheap set-up and a wider seed-to-seed spread use more.
	datasets int
}

var workloads = []workload{
	{name: "impute_heavy", profile: "Citations", scale: 2, xi: 0.5, m: 1, eta: 0.5, w: 100, batch: 64, rate: 1200, datasets: 8},
	{name: "resolve_heavy", profile: "EBooks", scale: 1, xi: 0, m: 1, eta: 0.5, w: 500, batch: 64, rate: 1000, datasets: 4},
}

// Fixed operator parameters: terids-serve's defaults, mirrored by the
// reference configuration.
const (
	alpha   = 0.5
	rho     = 0.5
	streams = 2
)

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the terids-serve flags for wl (the caller adds -addr).
func (wl workload) serverArgs(seed int64) []string {
	return []string{
		"-dataset", wl.profile,
		"-scale", strconv.FormatFloat(wl.scale, 'g', -1, 64),
		"-eta", strconv.FormatFloat(wl.eta, 'g', -1, 64),
		"-w", strconv.Itoa(wl.w),
		"-seed", strconv.FormatInt(seed, 10),
	}
}

// inputs are everything a run derives from (workload, seed): the repository
// terids-serve bootstraps, and one pass of the arrival stream, which the
// client replays in passes with a ".p<pass>" RID suffix.
type inputs struct {
	wl       workload
	seed     int64
	repo     *repository.Repository
	keywords []string
	pass     []*tuple.Record
	// lineTail[k] is the NDJSON suffix of pass record k after its RID.
	lineTail []string
}

func newInputs(wl workload, seed int64) (*inputs, error) {
	prof, err := dataset.ProfileByName(wl.profile)
	if err != nil {
		return nil, err
	}
	// terids-serve generates its repository with these exact options (ξ and
	// m are fixed there; they steer the generator's random draws, so the
	// repository depends on them too).
	srv, err := dataset.Generate(prof, dataset.Options{
		Scale: wl.scale, RepoRatio: wl.eta, Seed: seed, MissingRate: 0.3, MissingAttrs: 1,
	})
	if err != nil {
		return nil, err
	}
	// The stream comes from the same entity universe (entities are drawn
	// before any stream tuple), so the repository holds copies of the
	// streamed entities.
	st, err := dataset.Generate(prof, dataset.Options{
		Scale: wl.scale, RepoRatio: wl.eta, Seed: seed, MissingRate: wl.xi, MissingAttrs: wl.m,
	})
	if err != nil {
		return nil, err
	}
	perStream := make([]int, streams)
	for _, r := range st.Stream {
		perStream[r.Stream]++
	}
	for s, n := range perStream {
		// A window holding a whole pass would let recycled records match
		// their own earlier copies, changing the workload.
		if wl.w >= n {
			return nil, fmt.Errorf("workload %s: window %d is at least one pass (%d tuples) of stream %d", wl.name, wl.w, n, s)
		}
	}
	in := &inputs{wl: wl, seed: seed, repo: srv.Repo, keywords: srv.Keywords, pass: st.Stream}
	in.lineTail = make([]string, len(st.Stream))
	for k, r := range st.Stream {
		vals := make([]string, r.D())
		for j := range vals {
			vals[j] = r.Value(j)
		}
		enc, err := json.Marshal(vals)
		if err != nil {
			return nil, err
		}
		in.lineTail[k] = fmt.Sprintf(`","stream":%d,"values":%s}`, r.Stream, enc)
	}
	return in, nil
}

func (in *inputs) passLen() int { return len(in.pass) }

// rid names arrival i: the pass record's RID plus its pass number.
func (in *inputs) rid(i int) string {
	return in.pass[i%len(in.pass)].RID + ".p" + strconv.Itoa(i/len(in.pass))
}

// appendLine appends arrival i's /ingest NDJSON line to buf.
func (in *inputs) appendLine(buf []byte, i int) []byte {
	buf = append(buf, `{"rid":"`...)
	buf = append(buf, in.rid(i)...)
	buf = append(buf, in.lineTail[i%len(in.pass)]...)
	return append(buf, '\n')
}

// record builds arrival i under schema, with the 1-based tuple sequence
// terids-serve assigns to unsequenced lines.
func (in *inputs) record(schema *tuple.Schema, i int) (*tuple.Record, error) {
	p := in.pass[i%len(in.pass)]
	vals := make([]string, p.D())
	for j := range vals {
		vals[j] = p.Value(j)
	}
	return tuple.NewRecord(schema, in.rid(i), p.Stream, int64(i+1), vals)
}

func (in *inputs) prepare() (*core.Shared, error) {
	return core.Prepare(in.repo, core.DefaultPrepareConfig(in.keywords))
}

func (in *inputs) coreConfig(sh *core.Shared) core.Config {
	return core.Config{
		Keywords: in.keywords, Gamma: rho * float64(sh.Schema.D()), Alpha: alpha,
		WindowSize: in.wl.w, Streams: streams,
	}
}

// pair is one match with both RIDs in normalized order.
type pair struct {
	a, b string
	prob float64
}

func newPair(x, y string, prob float64) pair {
	if x > y {
		x, y = y, x
	}
	return pair{x, y, prob}
}

func corePairs(ps []core.Pair) []pair {
	out := make([]pair, len(ps))
	for i, p := range ps {
		out[i] = newPair(p.A.RID, p.B.RID, p.Prob)
	}
	return out
}

// reference is core.Processor's output for every arrival of a run. Because
// the window is shorter than one pass of every stream, pass p >= 2 sees the
// same window contents as pass 1 with every pass number shifted by p-1, so
// the Processor runs three passes, checks that pass 2 is pass 1 shifted,
// and derives later passes by the same shift.
type reference struct {
	in    *inputs
	pairs [][]pair // arrivals of passes 0..2
}

func newReference(in *inputs, sh *core.Shared) (*reference, error) {
	proc, err := core.NewProcessor(sh, in.coreConfig(sh))
	if err != nil {
		return nil, err
	}
	ref := &reference{in: in, pairs: make([][]pair, 3*in.passLen())}
	for i := range ref.pairs {
		r, err := in.record(sh.Schema, i)
		if err != nil {
			return nil, err
		}
		ps, err := proc.Advance(r)
		if err != nil {
			return nil, fmt.Errorf("reference arrival %d: %w", i, err)
		}
		ref.pairs[i] = corePairs(ps)
	}
	for i := 2 * in.passLen(); i < len(ref.pairs); i++ {
		if !samePairs(ref.pairs[i], ref.shifted(i-in.passLen(), 1)) {
			return nil, fmt.Errorf("reference: pass 2 arrival %d is not pass 1 shifted; window longer than a pass?", i)
		}
	}
	return ref, nil
}

// shifted returns the reference pairs of arrival i with every pass number
// raised by k.
func (ref *reference) shifted(i, k int) []pair {
	src := ref.pairs[i]
	out := make([]pair, len(src))
	for n, p := range src {
		out[n] = newPair(shiftRID(p.a, k), shiftRID(p.b, k), p.prob)
	}
	return out
}

func shiftRID(rid string, k int) string {
	cut := strings.LastIndex(rid, ".p")
	pass, _ := strconv.Atoi(rid[cut+2:])
	return rid[:cut+2] + strconv.Itoa(pass+k)
}

// expect returns core.Processor's pairs for arrival i.
func (ref *reference) expect(i int) []pair {
	L := ref.in.passLen()
	if i < len(ref.pairs) {
		return ref.pairs[i]
	}
	k := i/L - 1
	return ref.shifted(i-k*L, k)
}

func samePairs(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
