// Engine-side observability: every pipeline stage publishes lock-cheap
// latency histograms and counters into an obs.Registry, and -trace-sample
// additionally records one-in-N arrivals' complete stage timeline into a
// bounded ring. Instrumentation is on by default (Config.Obs selects the
// registry, nil = the process-wide default) and Config.ObsOff turns it off
// entirely — deep-replay throwaway engines run with it off so regenerating
// history never pollutes the live stage distributions.
package engine

import (
	"strconv"
	"time"

	"terids/internal/obs"
	"terids/internal/tokens"
)

// traceRingCap bounds the sampled-trace ring: enough to inspect recent
// behavior, small enough that tracing can never grow the heap.
const traceRingCap = 512

// Trace is one sampled arrival's full stage timeline (Config.TraceSample),
// serialized as one NDJSON line by GET /trace. Durations are nanoseconds.
type Trace struct {
	// Seq, RID, Stream identify the arrival.
	Seq    int64  `json:"seq"`
	RID    string `json:"rid"`
	Stream int    `json:"stream"`
	// Homes lists the shards that inserted the arrival.
	Homes []int `json:"home_shards,omitempty"`
	// Rejected marks a duplicate live RID dropped by the router.
	Rejected bool `json:"rejected,omitempty"`
	// WALWaitNs is the group-commit wait on the durable path (0 without a
	// WAL); QueueWaitNs the ingest-queue wait before an impute worker picked
	// the arrival up.
	WALWaitNs   int64 `json:"wal_wait_ns,omitempty"`
	QueueWaitNs int64 `json:"impute_queue_wait_ns"`
	// ImputeNs is the impute stage (index join, profile, home selection);
	// RouteNs the router's sequential work plus the per-shard fan-out.
	ImputeNs int64 `json:"impute_ns"`
	RouteNs  int64 `json:"route_ns"`
	// ShardNs[i] is shard i's resolve time for this arrival (every shard
	// resolves; residency is what Homes restricts).
	ShardNs []int64 `json:"shard_resolve_ns,omitempty"`
	// MergeHoldNs is the reorder-buffer hold before finalization; TotalNs the
	// whole submit→finalize latency; Pairs the matches emitted.
	MergeHoldNs int64 `json:"merge_hold_ns"`
	TotalNs     int64 `json:"total_ns"`
	Pairs       int   `json:"pairs"`

	start time.Time
}

// engineMetrics bundles the engine's instruments. A nil *engineMetrics (on
// Engine.met, when Config.ObsOff is set) disables instrumentation with one
// pointer check per stage.
type engineMetrics struct {
	reg *obs.Registry

	arrivals     *obs.Counter
	rejected     *obs.Counter
	traceSampled *obs.Counter

	imputeWait   *obs.Histogram
	imputeTime   *obs.Histogram
	routeTime    *obs.Histogram
	mergeHold    *obs.Histogram
	mergePending *obs.Gauge
	walWait      *obs.Histogram
	batchEntries *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	reg.GaugeFunc("terids_token_dictionary_size",
		"Distinct tokens in the process-wide token dictionary; only a token never seen before grows it.", nil,
		func() float64 { return float64(tokens.DictionarySize()) })
	return &engineMetrics{
		reg: reg,
		arrivals: reg.Counter("terids_arrivals_total",
			"Arrivals accepted into the pipeline.", nil),
		rejected: reg.Counter("terids_rejected_total",
			"Arrivals dropped as duplicate live RIDs.", nil),
		traceSampled: reg.Counter("terids_traces_sampled_total",
			"Arrivals whose full stage timeline was trace-sampled.", nil),
		imputeWait: reg.Histogram("terids_impute_queue_wait_seconds",
			"Time an accepted arrival waits in the ingest queue before an impute worker picks it up.", nil),
		imputeTime: reg.Histogram("terids_impute_seconds",
			"Imputation stage latency per arrival: CDD/DR index join, pruning profile, home-shard selection.", nil),
		routeTime: reg.Histogram("terids_route_seconds",
			"Router latency per arrival: duplicate check, window advance, expiry, per-shard fan-out.", nil),
		mergeHold: reg.Histogram("terids_merge_hold_seconds",
			"Time one arrival's partial results wait in the merger's reorder buffer before finalizing.", nil),
		mergePending: reg.Gauge("terids_merge_pending",
			"Arrivals currently held in the merger's reorder buffer.", nil),
		walWait: reg.Histogram("terids_wal_submit_wait_seconds",
			"Submitter-observed WAL group-commit wait, reservation to durable.", nil),
		batchEntries: reg.SizeHistogram("terids_submit_batch_entries",
			"Arrivals per accepted submission batch (1 = single Submit).", nil),
	}
}

// poolStats builds the hit/miss counter pair for one named hot-path pool.
func (m *engineMetrics) poolStats(name string) poolStats {
	return poolStats{
		hits: m.reg.Counter("terids_pool_hits_total",
			"Hot-path pool gets served from the pool.", obs.Labels{"pool": name}),
		misses: m.reg.Counter("terids_pool_misses_total",
			"Hot-path pool gets that fell through to a fresh allocation.", obs.Labels{"pool": name}),
	}
}

// shardResolve is shard id's resolve-latency histogram. Shard ids repeat
// across checkpoint applies and engines sharing a registry; the series are cumulative
// per (process, shard id), as Prometheus counters are.
func (m *engineMetrics) shardResolve(id int) *obs.Histogram {
	return m.reg.Histogram("terids_shard_resolve_seconds",
		"Shard ER latency per arrival command: evict expired, resolve against the partition, insert.",
		obs.Labels{"shard": strconv.Itoa(id)})
}

// Traces returns the retained sampled arrival timelines, oldest first
// (empty unless Config.TraceSample > 0).
func (e *Engine) Traces() []Trace {
	if e.traces == nil {
		return nil
	}
	return e.traces.Snapshot()
}
