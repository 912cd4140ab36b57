package main

import (
	"bytes"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"terids/internal/core"
	"terids/internal/engine"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

const (
	// tracedPasses is how many passes of the stream the in-process layers
	// see; every count of the traced run is over exactly these arrivals.
	tracedPasses = 2
	// tracedReps repeats each timed in-process pass; times are medians.
	tracedReps = 3
)

// traced is the -trace 1 run: the per-layer metrics.
func traced(cfg runConfig, in *inputs) (*outcome, error) {
	out := &outcome{ok: true}
	fail := func(format string, a ...any) {
		log.Printf("FAIL: "+format, a...)
		out.ok = false
	}

	var prepares []float64
	var sh *core.Shared
	for r := 0; r < tracedReps; r++ {
		start := time.Now()
		s, err := in.prepare()
		if err != nil {
			return nil, err
		}
		prepares = append(prepares, time.Since(start).Seconds())
		sh = s
	}
	ref, err := newReference(in, sh)
	if err != nil {
		return nil, err
	}
	ccfg := in.coreConfig(sh)
	n := tracedPasses * in.passLen()
	recs := make([]*tuple.Record, n)
	for i := range recs {
		if recs[i], err = in.record(sh.Schema, i); err != nil {
			return nil, err
		}
	}
	perArrival := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

	// Self-check: the re-driven layers must reproduce Step.Impute,
	// Step.Resolve and the Processor on every arrival.
	vd, err := newOperator(sh, ccfg, newTracer(false), true)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		got, err := vd.advance(r)
		if err != nil {
			return nil, fmt.Errorf("traced run self-check: %w", err)
		}
		if !samePairs(got, ref.expect(i)) {
			return nil, fmt.Errorf("traced run self-check: arrival %d pairs %v, Processor %v", i, got, ref.expect(i))
		}
	}
	if vd.stepPS != vd.c.prune {
		return nil, fmt.Errorf("traced run self-check: cascade counts %+v, Step.Resolve %+v", vd.c.prune, vd.stepPS)
	}
	want := vd.c

	// Timed passes: the Processor baseline, then the re-driven operator with spans off
	// and on, interleaved so drift hits all three alike.
	var procUS, offUS, onUS []float64
	var layerUS [numSpans][]float64
	var inclUS [numSpans][]float64
	var last *tracer
	for rep := 0; rep < tracedReps; rep++ {
		proc, err := core.NewProcessor(sh, ccfg)
		if err != nil {
			return nil, err
		}
		c0 := selfCPU()
		for _, r := range recs {
			if _, err := proc.Advance(r); err != nil {
				return nil, err
			}
		}
		procUS = append(procUS, perArrival(selfCPU()-c0))

		for _, on := range []bool{false, true} {
			tr := newTracer(on)
			d, err := newOperator(sh, ccfg, tr, false)
			if err != nil {
				return nil, err
			}
			c0 := selfCPU()
			for i, r := range recs {
				tr.arrival = int32(i)
				if _, err := d.advance(r); err != nil {
					return nil, err
				}
			}
			cpu := perArrival(selfCPU() - c0)
			if d.c != want {
				fail("work counters drifted between passes: %+v then %+v", want, d.c)
			}
			if !on {
				offUS = append(offUS, cpu)
				continue
			}
			onUS = append(onUS, cpu)
			self, incl := tr.layerTimes()
			for k := range self {
				layerUS[k] = append(layerUS[k], perArrival(self[k]))
				inclUS[k] = append(inclUS[k], perArrival(incl[k]))
			}
			last = tr
		}
	}
	if err := last.write(cfg.traceFile); err != nil {
		return nil, err
	}
	layer := func(s spanName) float64 { return median(layerUS[s]) }
	procCPU := median(procUS)

	eng, err := engineLayer(sh, in, ref, recs)
	if err != nil {
		return nil, err
	}
	dur, err := durableLayer(cfg.dir, sh, in, recs)
	if err != nil {
		return nil, err
	}
	edge, err := serveLayer(cfg, in, ref)
	if err != nil {
		return nil, err
	}
	out.attempted = n + edge.attempted
	out.failed = edge.failed
	if !edge.ok {
		out.ok = false
	}

	arrival := median(inclUS[spArrival])
	imputeShare := layer(spImpute) + layer(spSelect) + layer(spMatch) + layer(spAccumulate)
	resolveShare := layer(spProfile) + layer(spResolve) + layer(spCandidates) + layer(spCascade) + layer(spRefine)
	add := out.add
	add("core.prepare_s", median(prepares), "s")
	add("cddindex.select_us", layer(spSelect), "us")
	add("cddindex.rules", float64(want.rules), "count")
	add("drindex.match_us", layer(spMatch), "us")
	add("drindex.samples", float64(want.samples), "count")
	add("impute.accumulate_us", layer(spAccumulate), "us")
	add("impute.candidates", float64(want.candidates), "count")
	add("core.impute_us", median(inclUS[spImpute]), "us")
	add("prune.profile_us", layer(spProfile), "us")
	add("grid.candidates_us", layer(spCandidates), "us")
	add("grid.survivors", float64(want.survivors), "count")
	add("prune.cascade_us", layer(spCascade), "us")
	add("prune.refine_us", layer(spRefine), "us")
	add("prune.considered", float64(vd.stepPS.Considered), "count")
	add("prune.topic", float64(vd.stepPS.Topic), "count")
	add("prune.sim_ub", float64(vd.stepPS.SimUB), "count")
	add("prune.prob_ub", float64(vd.stepPS.ProbUB), "count")
	add("prune.inst_pair", float64(vd.stepPS.InstPair), "count")
	add("prune.refined", float64(vd.stepPS.Refined), "count")
	add("core.resolve_us", median(inclUS[spResolve]), "us")
	add("stream.push_us", layer(spPush), "us")
	add("grid.remove_us", layer(spRemove), "us")
	add("grid.insert_us", layer(spInsert), "us")
	add("core.processor_us_per_arrival", procCPU, "us")
	add("engine.pipeline_cpu_us_per_arrival", eng.cpuUS-procCPU, "us")
	add("engine.submit_us", eng.submitUS, "us")
	add("serve.ingest_post_ms.p50", quantile(edge.postMS, 0.5), "ms")
	add("serve.ingest_post_ms.p99", quantile(edge.postMS, 0.99), "ms")
	add("serve.result_lag_ms.p50", quantile(edge.lagMS, 0.5), "ms")
	add("serve.result_lag_ms.p99", quantile(edge.lagMS, 0.99), "ms")
	add("serve.edge_cpu_us_per_arrival", edge.cpuUS-eng.cpuUS, "us")
	add("wal.append_us", dur.appendUS, "us")
	add("wal.sync_wait_us", dur.syncUS, "us")
	add("wal.bytes_per_entry", dur.bytesPerEntry, "bytes")
	add("engine.checkpoint_us", dur.checkpointUS, "us")
	add("snapshot.encode_us", dur.encodeUS, "us")
	add("snapshot.full_bytes", dur.fullBytes, "bytes")
	add("snapshot.delta_bytes", dur.deltaBytes, "bytes")
	add("snapshot.decode_us", dur.decodeUS, "us")
	add("engine.recover_s", dur.recoverS, "s")
	add("loadgen.late_ms.max", maxOf(edge.lateMS), "ms")
	add("loadgen.late_ms.p99", quantile(edge.lateMS, 0.99), "ms")
	add("trace.overhead_pct", 100*(median(onUS)-median(offUS))/median(offUS), "%")
	add("split.impute_pct", 100*imputeShare/arrival, "%")
	add("split.resolve_pct", 100*resolveShare/arrival, "%")
	add("split.outside_core_pct", 100*(edge.cpuUS-procCPU)/edge.cpuUS, "%")
	return out, nil
}

type engineLayers struct {
	cpuUS    float64 // process CPU per arrival of engine.New + SubmitBatch + Close
	submitUS float64 // wall time inside SubmitBatch per arrival
}

// engineLayer runs the sharded engine in process over recs, in POST-sized
// batches, and checks its results against the reference.
func engineLayer(sh *core.Shared, in *inputs, ref *reference, recs []*tuple.Record) (engineLayers, error) {
	var cpus, submits []float64
	n := float64(len(recs))
	for rep := 0; rep < tracedReps; rep++ {
		got := make([][]pair, len(recs))
		eng, err := engine.New(sh, engine.Config{
			Core: in.coreConfig(sh), QueueDepth: 256,
			Obs: obs.NewRegistry(), Journal: obs.NewJournal(64),
			OnResult: func(res engine.Result) { got[res.Seq] = corePairs(res.Pairs) },
		})
		if err != nil {
			return engineLayers{}, err
		}
		c0 := selfCPU()
		var submit time.Duration
		for i := 0; i < len(recs); i += in.wl.batch {
			t := time.Now()
			err := eng.SubmitBatch(recs[i:min(i+in.wl.batch, len(recs))])
			submit += time.Since(t)
			if err != nil {
				eng.Close()
				return engineLayers{}, err
			}
		}
		if err := eng.Close(); err != nil {
			return engineLayers{}, err
		}
		cpus = append(cpus, float64((selfCPU()-c0).Nanoseconds())/1e3/n)
		submits = append(submits, float64(submit.Nanoseconds())/1e3/n)
		for i := range got {
			if !samePairs(got[i], ref.expect(i)) {
				return engineLayers{}, fmt.Errorf("in-process engine: arrival %d pairs %v, Processor %v", i, got[i], ref.expect(i))
			}
		}
	}
	return engineLayers{cpuUS: median(cpus), submitUS: median(submits)}, nil
}

type durableLayers struct {
	appendUS, syncUS, bytesPerEntry  float64 // per arrival
	checkpointUS, encodeUS, decodeUS float64 // per checkpoint
	fullBytes, deltaBytes            float64 // last checkpoint's encodings
	recoverS                         float64
}

// durableLayer drives the WAL on its own, then a durable engine with
// checkpoints at each quarter but the last, and finally reopens that crash
// image (WAL suffix since the last checkpoint) to time recovery.
func durableLayer(dir string, sh *core.Shared, in *inputs, recs []*tuple.Record) (durableLayers, error) {
	var out durableLayers
	n := float64(len(recs))
	B := in.wl.batch

	walDir := filepath.Join(dir, "layer-wal")
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return out, err
	}
	var appendT, syncT time.Duration
	for i := 0; i < len(recs); i += B {
		batch := make([]wal.Entry, 0, B)
		for k := i; k < min(i+B, len(recs)); k++ {
			r := recs[k]
			vals := make([]string, r.D())
			for j := range vals {
				vals[j] = r.Value(j)
			}
			batch = append(batch, wal.Entry{Seq: int64(k), RID: r.RID, Stream: r.Stream, TupleSeq: r.Seq, EntityID: r.EntityID, Values: vals})
		}
		t := time.Now()
		tk, err := l.ReserveN(batch, true)
		appendT += time.Since(t)
		if err != nil {
			l.Close()
			return out, err
		}
		t = time.Now()
		err = tk.Wait()
		syncT += time.Since(t)
		if err != nil {
			l.Close()
			return out, err
		}
	}
	out.bytesPerEntry = float64(l.Stats().Bytes) / n
	if err := l.Close(); err != nil {
		return out, err
	}
	out.appendUS = float64(appendT.Nanoseconds()) / 1e3 / n
	out.syncUS = float64(syncT.Nanoseconds()) / 1e3 / n

	engCfg := engine.Config{Core: in.coreConfig(sh), QueueDepth: 256, Obs: obs.NewRegistry(), Journal: obs.NewJournal(64)}
	ddir := filepath.Join(dir, "layer-durable")
	d, err := engine.OpenDurable(sh, engCfg, engine.DurableConfig{Dir: ddir, DeltaEvery: 4})
	if err != nil {
		return out, err
	}
	quarter := len(recs) / 4 / B * B
	var ckptT, encT, decT time.Duration
	var ckpts int
	var prev *snapshot.Checkpoint
	for i := 0; i < len(recs); i += B {
		if err := d.Eng.SubmitBatch(recs[i:min(i+B, len(recs))]); err != nil {
			d.Close(false)
			return out, err
		}
		if done := i + B; done%quarter != 0 || done >= 4*quarter {
			continue
		}
		t := time.Now()
		ck, err := d.Eng.Checkpoint()
		ckptT += time.Since(t)
		if err != nil {
			d.Close(false)
			return out, err
		}
		var buf bytes.Buffer
		t = time.Now()
		err = snapshot.Encode(&buf, ck)
		encT += time.Since(t)
		if err != nil {
			d.Close(false)
			return out, err
		}
		out.fullBytes = float64(buf.Len())
		t = time.Now()
		_, err = snapshot.Decode(bytes.NewReader(buf.Bytes()))
		decT += time.Since(t)
		if err != nil {
			d.Close(false)
			return out, err
		}
		if prev != nil {
			delta, err := snapshot.ComputeDelta(prev, ck)
			if err != nil {
				d.Close(false)
				return out, err
			}
			buf.Reset()
			if err := snapshot.EncodeDelta(&buf, delta); err != nil {
				d.Close(false)
				return out, err
			}
			out.deltaBytes = float64(buf.Len())
		}
		prev = ck
		ckpts++
		// Leave the on-disk image the server's checkpointer would.
		if _, err := d.CheckpointNow(); err != nil {
			d.Close(false)
			return out, err
		}
	}
	if err := d.Close(false); err != nil {
		return out, err
	}
	per := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e3 / float64(max(ckpts, 1)) }
	out.checkpointUS, out.encodeUS, out.decodeUS = per(ckptT), per(encT), per(decT)

	t := time.Now()
	d2, err := engine.OpenDurable(sh, engCfg, engine.DurableConfig{Dir: ddir})
	out.recoverS = time.Since(t).Seconds()
	if err != nil {
		return out, err
	}
	if got := d2.ResumeSeq(); got != int64(len(recs)) {
		d2.Close(false)
		return out, fmt.Errorf("recovered durable engine resumes at %d, want %d", got, len(recs))
	}
	return out, d2.Close(false)
}

type serveLayers struct {
	ok                bool
	attempted, failed int
	postMS, lagMS     []float64
	lateMS            []float64
	cpuUS             float64 // server CPU per arrival
}

// serveLayer runs a short open-loop phase through terids-serve for the
// HTTP-edge and load-generator metrics.
func serveLayer(cfg runConfig, in *inputs, ref *reference) (serveLayers, error) {
	out := serveLayers{ok: true}
	srv, err := startServer(cfg.serverBin, in.wl.serverArgs(in.seed))
	if err != nil {
		return out, err
	}
	defer srv.kill()
	base, _, err := srv.waitReady(readyTimeout)
	if err != nil {
		return out, err
	}
	sess, err := newSession(base, in)
	if err != nil {
		return out, err
	}
	defer sess.close()
	cpu0, err := srv.cpu()
	if err != nil {
		return out, err
	}
	n, err := sess.openLoop(seconds(0.5*cfg.seconds), in.wl.rate)
	if err != nil {
		log.Printf("FAIL: serve layer: %v", err)
		out.ok = false
	}
	if err := sess.drain(drainTimeout); err != nil {
		log.Printf("FAIL: serve layer: %v", err)
		out.ok = false
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return out, err
	}
	sess.tail.close()
	times := sess.tail.times
	for k := range sess.due {
		out.lateMS = append(out.lateMS, ms(sess.send[k].Sub(sess.due[k])))
		out.postMS = append(out.postMS, ms(sess.ack[k].Sub(sess.send[k])))
		for i := sess.postFirst[k]; i < sess.postFirst[k]+in.wl.batch && i < len(times); i++ {
			out.lagMS = append(out.lagMS, ms(times[i].Sub(sess.ack[k])))
		}
	}
	out.cpuUS = float64((cpu1 - cpu0).Microseconds()) / float64(max(n, 1))
	bad := make([]bool, sess.sent)
	if checkResults(in, ref, sess.tail.lines, bad) > 0 {
		out.ok = false
	}
	out.attempted = sess.sent + sess.failed
	out.failed = sess.failed
	for _, b := range bad {
		if b {
			out.failed++
		}
	}
	return out, nil
}
