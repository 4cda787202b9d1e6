package svc

import (
	"net/http"
	"sync"
	"testing"

	"bsisa/internal/backend"
)

// TestServerMetricsMatchResponses runs mixed traffic through a server with a
// store and requires every /metrics delta to equal the count the responses
// themselves report. Each response says which artifact caches it hit,
// whether its trace came from the store, and which engine ran it; from
// those follow the cache and store events, the recordings, the stage
// observations and the jobs.
func TestServerMetricsMatchResponses(t *testing.T) {
	dir := t.TempDir()
	seed := int64(77)
	single := func(isaName string) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: isaName},
			Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 4096, Ways: 4}},
		}
	}
	sweep := func(sw *SweepSpec) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:   sw,
		}
	}
	reqs := []*SimRequest{
		sweep(&SweepSpec{ICacheSizes: []int{0, 2048, 8192}}),
		sweep(&SweepSpec{
			HistoryBits: []int{4, 12},
			Base:        &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
		}),
		sweep(&SweepSpec{HistoryBits: []int{4, 12}, ICacheSizes: []int{2048, 8192}}),
		{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config:  &ConfigSpec{PerfectBP: true},
		},
	}
	for _, be := range backend.All() {
		reqs = append(reqs, single(be.Name()))
	}

	// An earlier process leaves the block-structured trace in the store, so
	// the run below takes a store hit as well as misses. It runs a single
	// config, which attaches no predecode to the file.
	seedCfg := quietConfig()
	seedStore, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedCfg.Store = seedStore
	_, seedTS := testServer(t, seedCfg)
	if status, resp := post(t, seedTS, single("bsa")); status != http.StatusOK {
		t.Fatalf("seeding the store: status %d: %s", status, resp.Error)
	}

	cfg := quietConfig()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	_, ts := testServer(t, cfg)
	before := scrape(t, ts)

	var resps []*SimResponse
	for _, req := range reqs {
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, resp.Error)
		}
		resps = append(resps, resp)
	}
	// Each request twice more, all at once.
	concurrent := make([]*SimResponse, 2*len(reqs))
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := post(t, ts, reqs[i%len(reqs)])
			if status != http.StatusOK {
				t.Errorf("concurrent request %d: status %d: %s", i, status, resp.Error)
				return
			}
			concurrent[i] = resp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	resps = append(resps, concurrent...)
	after := scrape(t, ts)

	cacheEvent := func(cache string, hit bool) string {
		event := "miss"
		if hit {
			event = "hit"
		}
		return `bsimd_artifact_cache_events_total{cache="` + cache + `",event="` + event + `"}`
	}
	storeEvent := func(event string) string { return `bsimd_store_events_total{event="` + event + `"}` }
	stage := func(name string) string { return `bsimd_stage_seconds_count{stage="` + name + `"}` }

	want := map[string]int{"bsimd_jobs_total": len(resps)}
	for _, r := range resps {
		ac := r.ArtifactCache
		want[cacheEvent("program", ac.Program)]++
		if !ac.Program {
			want[stage("compile")]++
		}
		want[cacheEvent("trace", ac.Trace)]++
		switch {
		case ac.Trace:
		case ac.Store:
			want[storeEvent("hit")]++
		default:
			// Both tiers missed: the job recorded the trace and wrote it
			// through.
			want[storeEvent("miss")]++
			want["bsimd_trace_records_total"]++
			want[stage("trace")]++
			want[storeEvent("write")]++
		}
		switch r.Engine {
		case "sweep":
			want[stage("sweep")]++
			want[cacheEvent("predecode", ac.Predecode)]++
			if !ac.Predecode {
				// A fresh predecode is attached to the trace file.
				want[storeEvent("write")]++
			}
		case "simulate-many":
			want[stage("replay")]++
		default:
			t.Fatalf("response ran on engine %q", r.Engine)
		}
	}

	// Traffic that never misses, or never hits the store, would make an
	// equality vacuous, so every series must have moved.
	moved := []string{
		storeEvent("hit"), storeEvent("miss"), storeEvent("write"), "bsimd_trace_records_total",
		stage("compile"), stage("trace"), stage("replay"), stage("sweep"),
	}
	for _, cache := range []string{"program", "trace", "predecode"} {
		moved = append(moved, cacheEvent(cache, true), cacheEvent(cache, false))
	}
	for _, series := range moved {
		if want[series] == 0 {
			t.Fatalf("the traffic never produced %s", series)
		}
	}
	want[storeEvent("corrupt")] = 0
	for series, n := range want {
		b, okBefore := before[series]
		a, okAfter := after[series]
		if !okBefore || !okAfter {
			t.Fatalf("/metrics has no %s", series)
		}
		if a-b != float64(n) {
			t.Errorf("%s rose by %g, but the responses account for %d", series, a-b, n)
		}
	}
}
