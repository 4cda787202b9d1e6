package svc

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Pipeline stages instrumented with latency histograms. "replay" is the
// per-config SimulateMany path, "sweep" the unified multi-axis single-pass
// engine (icache, predictor, and cross-product grids alike); a job exercises
// exactly one of the two.
const (
	stageCompile = "compile"
	stageTrace   = "trace"
	stageReplay  = "replay"
	stageSweep   = "sweep"
)

var stageNames = []string{stageCompile, stageTrace, stageReplay, stageSweep}

// histBounds are the histogram bucket upper bounds in seconds (+Inf is
// implicit): tuned to straddle the pipeline's dynamic range, from cached
// sub-millisecond replays to multi-minute full-scale sweeps.
var histBounds = [numBounds]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

const numBounds = 8

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Sum is tracked in nanoseconds so it stays an integer atomic.
type histogram struct {
	buckets [numBounds + 1]atomic.Int64 // last bucket = +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(histBounds[:], s)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// metrics is the service's observability state: job and queue counters,
// per-stage latency histograms, and (via the server) artifact cache rates.
// All fields are safe for concurrent use.
type metrics struct {
	jobsTotal    atomic.Int64 // jobs accepted onto the pool
	jobsFailed   atomic.Int64 // jobs that returned an error envelope
	jobsRejected atomic.Int64 // requests refused before pooling (4xx/503)
	inFlight     atomic.Int64 // jobs currently executing
	queued       atomic.Int64 // jobs waiting for a pool slot
	coalesced    atomic.Int64 // requests answered from another request's pass

	traceRecords atomic.Int64 // traces actually recorded (cache+store misses)

	stages map[string]*histogram
}

func newMetrics() *metrics {
	m := &metrics{stages: make(map[string]*histogram, len(stageNames))}
	for _, s := range stageNames {
		m.stages[s] = &histogram{}
	}
	return m
}

// observeStage records one stage latency.
func (m *metrics) observeStage(stage string, d time.Duration) {
	if h, ok := m.stages[stage]; ok {
		h.observe(d)
	}
}

// writeProm renders the Prometheus text exposition format.
// programs/traces/predecodes carry the artifact cache counters snapshotted by
// the caller; store carries the persistent-store counters, or nil when the
// server runs without a store (the store series are then omitted entirely).
func (m *metrics) writeProm(w io.Writer, programs, traces, predecodes cacheCounters, store *storeCounters) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("bsimd_jobs_total", "Simulation jobs accepted onto the worker pool.", m.jobsTotal.Load())
	counter("bsimd_jobs_failed_total", "Jobs that completed with an error envelope.", m.jobsFailed.Load())
	counter("bsimd_requests_rejected_total", "Requests refused before reaching the pool.", m.jobsRejected.Load())
	gauge("bsimd_jobs_inflight", "Jobs currently executing on the pool.", m.inFlight.Load())
	gauge("bsimd_jobs_queued", "Jobs waiting for a pool slot.", m.queued.Load())
	counter("bsimd_coalesced_requests_total",
		"Requests answered from a concurrent identical request's simulation pass.", m.coalesced.Load())
	counter("bsimd_trace_records_total",
		"Traces recorded from scratch (every cache and store tier missed).", m.traceRecords.Load())

	if store != nil {
		fmt.Fprintf(w, "# HELP bsimd_store_events_total Persistent trace store outcomes by event.\n")
		fmt.Fprintf(w, "# TYPE bsimd_store_events_total counter\n")
		for _, e := range []struct {
			event string
			v     int64
		}{
			{"hit", store.Hits}, {"miss", store.Misses}, {"write", store.Writes},
			{"corrupt", store.Corruptions}, {"evict", store.Evictions}, {"fulldecode", store.FullDecodes},
		} {
			fmt.Fprintf(w, "bsimd_store_events_total{event=%q} %d\n", e.event, e.v)
		}
		fmt.Fprintf(w, "# HELP bsimd_store_bytes_total Persistent trace store traffic by direction.\n")
		fmt.Fprintf(w, "# TYPE bsimd_store_bytes_total counter\n")
		fmt.Fprintf(w, "bsimd_store_bytes_total{dir=\"read\"} %d\n", store.BytesRead)
		fmt.Fprintf(w, "bsimd_store_bytes_total{dir=\"written\"} %d\n", store.BytesWritten)
		fmt.Fprintf(w, "# HELP bsimd_store_mmap_events_total Trace-store mmap tier lifecycle events.\n")
		fmt.Fprintf(w, "# TYPE bsimd_store_mmap_events_total counter\n")
		fmt.Fprintf(w, "bsimd_store_mmap_events_total{event=\"map\"} %d\n", store.MmapMaps)
		fmt.Fprintf(w, "bsimd_store_mmap_events_total{event=\"unmap\"} %d\n", store.MmapUnmaps)
		fmt.Fprintf(w, "bsimd_store_mmap_events_total{event=\"rewrite\"} %d\n", store.Rewrites)
		gauge("bsimd_store_mmap_resident_bytes",
			"Bytes of trace files currently mmapped by in-flight or cached replays.", store.ResidentBytes)
	}

	fmt.Fprintf(w, "# HELP bsimd_artifact_cache_events_total Artifact cache hits/misses/evictions by cache.\n")
	fmt.Fprintf(w, "# TYPE bsimd_artifact_cache_events_total counter\n")
	for _, c := range []struct {
		name string
		c    cacheCounters
	}{{"program", programs}, {"trace", traces}, {"predecode", predecodes}} {
		fmt.Fprintf(w, "bsimd_artifact_cache_events_total{cache=%q,event=\"hit\"} %d\n", c.name, c.c.Hits)
		fmt.Fprintf(w, "bsimd_artifact_cache_events_total{cache=%q,event=\"miss\"} %d\n", c.name, c.c.Misses)
		fmt.Fprintf(w, "bsimd_artifact_cache_events_total{cache=%q,event=\"eviction\"} %d\n", c.name, c.c.Evictions)
	}
	fmt.Fprintf(w, "# HELP bsimd_artifact_cache_entries Artifact cache resident entries by cache.\n")
	fmt.Fprintf(w, "# TYPE bsimd_artifact_cache_entries gauge\n")
	fmt.Fprintf(w, "bsimd_artifact_cache_entries{cache=\"program\"} %d\n", programs.Entries)
	fmt.Fprintf(w, "bsimd_artifact_cache_entries{cache=\"trace\"} %d\n", traces.Entries)
	fmt.Fprintf(w, "bsimd_artifact_cache_entries{cache=\"predecode\"} %d\n", predecodes.Entries)

	fmt.Fprintf(w, "# HELP bsimd_stage_seconds Pipeline stage latency by stage.\n")
	fmt.Fprintf(w, "# TYPE bsimd_stage_seconds histogram\n")
	for _, s := range stageNames {
		h := m.stages[s]
		cum := int64(0)
		for i, bound := range histBounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "bsimd_stage_seconds_bucket{stage=%q,le=\"%g\"} %d\n", s, bound, cum)
		}
		cum += h.buckets[len(histBounds)].Load()
		fmt.Fprintf(w, "bsimd_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", s, cum)
		fmt.Fprintf(w, "bsimd_stage_seconds_sum{stage=%q} %g\n", s, time.Duration(h.sumNs.Load()).Seconds())
		fmt.Fprintf(w, "bsimd_stage_seconds_count{stage=%q} %d\n", s, h.count.Load())
	}
}
