package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"
)

const (
	// rounds is how many throughput + latency phase pairs a run makes per
	// dataset; a dataset's timing metrics are medians over its rounds, so
	// one disturbed round does not move them.
	rounds       = 3
	readyTimeout = 120 * time.Second
	drainTimeout = 60 * time.Second
)

// datasetSeed is the generation seed of a run's k-th dataset. It is passed
// both to the client's generator and to that server's -seed.
func datasetSeed(wl workload, seed int64, k int) int64 { return seed*int64(wl.datasets) + int64(k) }

// measured is one dataset's end-to-end metrics.
type measured struct {
	setup, tps, p50, p99, cpuUS, peakRSS float64
	attempted, failed                    int
}

// endToEnd measures the workload through terids-serve with tracing off.
// setup_s is the median over the run's datasets; every other metric is
// their interquartile mean, which averages the datasets' different costs
// while keeping a dataset disturbed by host noise out of the result.
func endToEnd(cfg runConfig, wl workload, seed int64) (*outcome, error) {
	out := &outcome{ok: true}
	var ms []measured
	for k := 0; k < wl.datasets; k++ {
		in, err := newInputs(wl, datasetSeed(wl, seed, k))
		if err != nil {
			return nil, err
		}
		m, ok, err := measure(cfg, in)
		if err != nil {
			return nil, err
		}
		out.ok = out.ok && ok
		out.attempted += m.attempted
		out.failed += m.failed
		ms = append(ms, m)
	}
	pick := func(f func(measured) float64) []float64 {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, f(m))
		}
		return xs
	}
	log.Printf("%s: error_rate %d/%d", wl.name, out.failed, out.attempted)
	out.add("setup_s", median(pick(func(m measured) float64 { return m.setup })), "s")
	out.add("throughput_tps", midMean(pick(func(m measured) float64 { return m.tps })), "1/s")
	out.add("latency_p50_ms", midMean(pick(func(m measured) float64 { return m.p50 })), "ms")
	out.add("latency_p99_ms", midMean(pick(func(m measured) float64 { return m.p99 })), "ms")
	out.add("cpu_us_per_arrival", midMean(pick(func(m measured) float64 { return m.cpuUS })), "us")
	out.add("peak_rss_mb", midMean(pick(func(m measured) float64 { return m.peakRSS })), "MiB")
	return out, nil
}

// measure runs one dataset: boot, a warm-up pass, rounds of a closed-loop
// throughput phase and an open-loop latency phase, then the check of every
// result against the reference. ok is false when any check failed.
func measure(cfg runConfig, in *inputs) (m measured, ok bool, err error) {
	wl := in.wl
	ok = true
	fail := func(format string, a ...any) {
		log.Printf("FAIL: seed %d: "+format, append([]any{in.seed}, a...)...)
		ok = false
	}
	srv, err := startServer(cfg.serverBin, wl.serverArgs(in.seed))
	if err != nil {
		return m, false, err
	}
	defer srv.kill()
	base, setup, err := srv.waitReady(readyTimeout)
	if err != nil {
		return m, false, err
	}
	m.setup = setup.Seconds()
	sess, err := newSession(base, in)
	if err != nil {
		return m, false, err
	}
	defer sess.close()
	// Warm-up: one untimed pass fills the windows, so every round runs at
	// steady state. Its results are checked with the rest.
	for sess.sent < in.passLen() {
		if err := sess.post(wl.batch); err != nil {
			return m, false, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := sess.drain(drainTimeout); err != nil {
		return m, false, fmt.Errorf("warm-up: %w", err)
	}
	type round struct {
		tpFirst, tpN       int
		tpStart            time.Time
		postLo, postHi, lN int
		cpu                time.Duration
	}
	var rs []round
	phase := cfg.seconds / float64(wl.datasets*rounds)
	for r := 0; r < rounds; r++ {
		var rd round
		rd.tpFirst, rd.tpN, rd.tpStart, err = sess.closedLoop(seconds(0.4 * phase))
		if err != nil {
			fail("throughput phase: %v", err)
		}
		if err := sess.drain(drainTimeout); err != nil {
			fail("throughput phase: %v", err)
		}
		cpu0, err := srv.cpu()
		if err != nil {
			return m, false, err
		}
		rd.postLo = len(sess.due)
		rd.lN, err = sess.openLoop(seconds(0.6*phase), wl.rate)
		if err != nil {
			fail("latency phase: %v", err)
		}
		if err := sess.drain(drainTimeout); err != nil {
			fail("latency phase: %v", err)
		}
		cpu1, err := srv.cpu()
		if err != nil {
			return m, false, err
		}
		rd.postHi, rd.cpu = len(sess.due), cpu1-cpu0
		rs = append(rs, rd)
	}
	sess.tail.close()
	srv.kill()
	m.peakRSS = srv.maxRSSMB()
	lines, times := sess.tail.lines, sess.tail.times

	var tps, p50, p99, cpuUS []float64
	latSamples := 0
	for _, rd := range rs {
		if last := rd.tpFirst + rd.tpN - 1; rd.tpN > 0 && last < len(times) {
			tps = append(tps, float64(rd.tpN)/times[last].Sub(rd.tpStart).Seconds())
		}
		var lat []float64
		for k := rd.postLo; k < rd.postHi; k++ {
			for i := sess.postFirst[k]; i < sess.postFirst[k]+wl.batch && i < len(times); i++ {
				lat = append(lat, ms(times[i].Sub(sess.due[k])))
			}
		}
		latSamples += len(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		cpuUS = append(cpuUS, float64(rd.cpu.Nanoseconds())/1e3/float64(max(rd.lN, 1)))
	}
	m.tps, m.p50, m.p99, m.cpuUS = median(tps), median(p50), median(p99), median(cpuUS)
	log.Printf("seed %d: %d arrivals, %d latency samples at %.0f/s; per round: throughput_tps %.0f, latency_p50_ms %.2f, latency_p99_ms %.2f, cpu_us_per_arrival %.1f",
		in.seed, sess.sent, latSamples, wl.rate, tps, p50, p99, cpuUS)

	sh, err := in.prepare()
	if err != nil {
		return m, false, err
	}
	ref, err := newReference(in, sh)
	if err != nil {
		return m, false, err
	}
	bad := make([]bool, sess.sent)
	if n := checkResults(in, ref, lines, bad); n > 0 {
		fail("%d result lines differ from the core.Processor reference or are missing", n)
	}
	if len(lines) > sess.sent {
		fail("tail saw %d result lines for %d arrivals", len(lines), sess.sent)
	}
	m.attempted = sess.sent + sess.failed
	m.failed = sess.failed
	for _, b := range bad {
		if b {
			m.failed++
		}
	}
	return m, ok, nil
}

// resultLine is one terids-serve /results NDJSON line.
type resultLine struct {
	Seq      int64  `json:"seq"`
	RID      string `json:"rid"`
	Rejected bool   `json:"rejected"`
	Pairs    []struct {
		A    string  `json:"a"`
		B    string  `json:"b"`
		Prob float64 `json:"prob"`
	} `json:"pairs"`
}

// checkResults compares every tail line with the reference and marks the
// arrivals whose line is missing or differs; it returns how many it marked.
func checkResults(in *inputs, ref *reference, lines [][]byte, bad []bool) int {
	marked := 0
	for i := range bad {
		why := ""
		if i >= len(lines) {
			why = "missing"
		} else {
			var rl resultLine
			if err := json.Unmarshal(lines[i], &rl); err != nil {
				why = err.Error()
			} else {
				got := make([]pair, len(rl.Pairs))
				for n, p := range rl.Pairs {
					got[n] = newPair(p.A, p.B, p.Prob)
				}
				switch {
				case rl.Seq != int64(i) || rl.RID != in.rid(i):
					why = fmt.Sprintf("seq %d rid %s, want seq %d rid %s", rl.Seq, rl.RID, i, in.rid(i))
				case rl.Rejected:
					why = "rejected"
				case !samePairs(got, ref.expect(i)):
					why = fmt.Sprintf("pairs %v, want %v", got, ref.expect(i))
				}
			}
		}
		if why != "" {
			if !bad[i] && marked < 5 {
				log.Printf("seed %d arrival %d: %s", in.seed, i, why)
			}
			bad[i] = true
			marked++
		}
	}
	return marked
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
