package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/svc"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// smokeScale keeps the smoke run fast: the same reduced scale the CI
// bench-smoke stage uses.
const smokeScale = 0.05

// smokeRequest is a Figure-6-style question: the compress benchmark,
// conventional ISA, perfect reference plus the scaled 8/16/32 KB icache
// grid.
func smokeRequest(id string) *svc.SimRequest {
	return &svc.SimRequest{
		Version: svc.SchemaVersion,
		ID:      id,
		Program: svc.ProgramSpec{Workload: "compress", Scale: smokeScale, ISA: "conv"},
		Sweep:   &svc.SweepSpec{ICacheSizes: []int{0, 8 * 1024, 16 * 1024, 32 * 1024}},
	}
}

// smokeSingleRequest is a single-config question: the service must route it
// to one live replay and answer field-for-field what ReplayTrace answers.
func smokeSingleRequest(id string) *svc.SimRequest {
	return &svc.SimRequest{
		Version: svc.SchemaVersion,
		ID:      id,
		Program: svc.ProgramSpec{Workload: "compress", Scale: smokeScale, ISA: "conv"},
		Config:  &svc.ConfigSpec{ICache: &svc.CacheSpec{SizeBytes: 8 * 1024, Ways: 4}},
	}
}

// smokeXRequest is the multi-axis question: branch-history lengths crossed
// with icache sizes in one SweepSpec, answered by the unified sweep engine
// from the same cached trace.
func smokeXRequest(id string) *svc.SimRequest {
	return &svc.SimRequest{
		Version: svc.SchemaVersion,
		ID:      id,
		Program: svc.ProgramSpec{Workload: "compress", Scale: smokeScale, ISA: "conv"},
		Sweep: &svc.SweepSpec{
			ICacheSizes: []int{8 * 1024, 32 * 1024},
			HistoryBits: []int{4, 12},
		},
	}
}

// smokeBackendRequest is a single-config question targeting one ISA backend;
// the four-way phase posts it once per registered backend.
func smokeBackendRequest(id, isaName string) *svc.SimRequest {
	return &svc.SimRequest{
		Version: svc.SchemaVersion,
		ID:      id,
		Program: svc.ProgramSpec{Workload: "compress", Scale: smokeScale, ISA: isaName},
		Config:  &svc.ConfigSpec{ICache: &svc.CacheSpec{SizeBytes: 32 * 1024, Ways: 4}},
	}
}

// smokePredRequest asks the predictor-sensitivity question over the same
// program — a sweep with a history axis and no icache axis — so the daemon
// serves the grid from the already-cached trace.
func smokePredRequest(id string) *svc.SimRequest {
	return &svc.SimRequest{
		Version: svc.SchemaVersion,
		ID:      id,
		Program: svc.ProgramSpec{Workload: "compress", Scale: smokeScale, ISA: "conv"},
		Sweep: &svc.SweepSpec{
			HistoryBits: []int{2, 8, 16},
			Base:        &svc.ConfigSpec{ICache: &svc.CacheSpec{SizeBytes: 8 * 1024, Ways: 4}},
		},
	}
}

// runSmoke is the CI service-smoke stage: equivalence against the direct
// library path for the unified sweep engine (icache, predictor, and
// multi-axis grids) and the single-config replay, then 32 concurrent
// identical sweeps that must each answer from the artifact caches, with the
// cache hits and stage metrics checked on /metrics — and finally a restart
// against the same trace store, which must serve the sweep without
// recording anything.
//
// The store is taken from -store when given (so CI can run the smoke twice
// on one directory and get a cross-process warm start) and is a throwaway
// temp directory otherwise.
func runSmoke(cfg svc.ServerConfig, logger *slog.Logger) error {
	if cfg.Store == nil {
		dir, err := os.MkdirTemp("", "bsimd-smoke-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := svc.NewStore(dir)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	server := svc.NewServer(cfg)
	defer server.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(server.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	if err := checkHealth(base); err != nil {
		return err
	}

	// 1. Figure-6-style sweep over HTTP vs the direct library path.
	got, err := postSim(base, smokeRequest("smoke-equivalence"))
	if err != nil {
		return err
	}
	want, err := directSweep(smokeRequest(""))
	if err != nil {
		return fmt.Errorf("direct path: %w", err)
	}
	if got.Engine != "sweep" {
		return fmt.Errorf("service routed the sweep through %q, want the unified engine", got.Engine)
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("service returned %d results, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			return fmt.Errorf("config %d diverges from the CLI path\nservice: %+v\ndirect:  %+v",
				i, got.Results[i], want[i])
		}
	}
	// When CI re-runs the smoke against a warm -store directory, the phase-1
	// trace comes from the store, and the hit must be a zero-copy mapping.
	storeWarm := got.ArtifactCache != nil && got.ArtifactCache.Store
	if storeWarm && !got.ArtifactCache.Mmap {
		return fmt.Errorf("warm store hit served without mmap: %+v", got.ArtifactCache)
	}
	logger.Info("smoke: service sweep matches direct path field-for-field",
		"configs", len(want), "store_warm", storeWarm)

	// 2. A predictor sweep over the same program: the fused predictor
	// engine must serve it from the already-cached trace.
	predGot, err := postSim(base, smokePredRequest("smoke-predictor-sweep"))
	if err != nil {
		return err
	}
	if predGot.Engine != "sweep" {
		return fmt.Errorf("service routed the predictor sweep through %q, want the unified engine", predGot.Engine)
	}
	if predGot.ArtifactCache == nil || !predGot.ArtifactCache.Trace {
		return fmt.Errorf("predictor sweep missed the trace cache: %+v", predGot.ArtifactCache)
	}
	predWant, err := directSweep(smokePredRequest(""))
	if err != nil {
		return fmt.Errorf("direct predictor path: %w", err)
	}
	if len(predGot.Results) != len(predWant) {
		return fmt.Errorf("predictor sweep returned %d results, want %d", len(predGot.Results), len(predWant))
	}
	for i := range predWant {
		g, w := predGot.Results[i], predWant[i]
		if g.Predictor == nil || *g.Predictor != *w.Predictor {
			return fmt.Errorf("predictor config %d echo diverges: %+v, want %+v", i, g.Predictor, w.Predictor)
		}
		g.Predictor, w.Predictor = nil, nil
		if g != w {
			return fmt.Errorf("predictor config %d diverges from the CLI path\nservice: %+v\ndirect:  %+v",
				i, g, w)
		}
	}
	logger.Info("smoke: predictor sweep served from cached trace, matches direct path", "configs", len(predWant))

	// 2b. The history x icache cross product in one request: the unified
	// engine must serve the whole grid from the cached trace and echo each
	// point's predictor, matching the direct library path field-for-field.
	xGot, err := postSim(base, smokeXRequest("smoke-multiaxis"))
	if err != nil {
		return err
	}
	if xGot.Engine != "sweep" {
		return fmt.Errorf("service routed the multi-axis sweep through %q, want the unified engine", xGot.Engine)
	}
	if xGot.ArtifactCache == nil || !xGot.ArtifactCache.Trace {
		return fmt.Errorf("multi-axis sweep missed the trace cache: %+v", xGot.ArtifactCache)
	}
	xWant, err := directSweep(smokeXRequest(""))
	if err != nil {
		return fmt.Errorf("direct multi-axis path: %w", err)
	}
	if len(xGot.Results) != len(xWant) {
		return fmt.Errorf("multi-axis sweep returned %d results, want %d", len(xGot.Results), len(xWant))
	}
	for i := range xWant {
		g, w := xGot.Results[i], xWant[i]
		if g.Predictor == nil || w.Predictor == nil || *g.Predictor != *w.Predictor {
			return fmt.Errorf("multi-axis config %d predictor echo diverges: %+v, want %+v", i, g.Predictor, w.Predictor)
		}
		g.Predictor, w.Predictor = nil, nil
		if g != w {
			return fmt.Errorf("multi-axis config %d diverges from the CLI path\nservice: %+v\ndirect:  %+v",
				i, g, w)
		}
	}
	logger.Info("smoke: multi-axis cross product matches direct path field-for-field", "configs", len(xWant))

	// 3. A single-config request: the service must route it to one live
	// replay and answer exactly what ReplayTrace answers.
	singleGot, err := postSim(base, smokeSingleRequest("smoke-single"))
	if err != nil {
		return err
	}
	if singleGot.Engine != "simulate-many" {
		return fmt.Errorf("service routed the single-config job through %q, want simulate-many", singleGot.Engine)
	}
	singleWant, err := directReplay(smokeSingleRequest(""))
	if err != nil {
		return fmt.Errorf("direct replay path: %w", err)
	}
	if len(singleGot.Results) != 1 || singleGot.Results[0] != *singleWant {
		return fmt.Errorf("single-config answer diverges from the direct replay\nservice: %+v\ndirect:  %+v",
			singleGot.Results, *singleWant)
	}
	logger.Info("smoke: single-config replay matches the direct replay field-for-field")

	// 3b. Four-way head-to-head over HTTP: every registered ISA backend must
	// answer the same single-config question, matching the direct library
	// pipeline (compile → shaping pass → record → replay) field-for-field.
	for _, name := range backend.Names() {
		got, err := postSim(base, smokeBackendRequest("smoke-isa-"+name, name))
		if err != nil {
			return fmt.Errorf("backend %s: %w", name, err)
		}
		want, err := directBackendRun(smokeBackendRequest("", name))
		if err != nil {
			return fmt.Errorf("backend %s direct path: %w", name, err)
		}
		if len(got.Results) != 1 || got.Results[0] != *want {
			return fmt.Errorf("backend %s diverges from the direct path\nservice: %+v\ndirect:  %+v",
				name, got.Results, *want)
		}
	}
	logger.Info("smoke: every registered backend answers over HTTP, matching the direct path",
		"backends", strings.Join(backend.Names(), ","))

	// 3c. An unknown ISA must be rejected with a 400, the machine-readable
	// bad_program code, and an error text listing the registry.
	blob, err := json.Marshal(smokeBackendRequest("smoke-isa-bogus", "vliw"))
	if err != nil {
		return err
	}
	bogusResp, err := http.Post(base+"/v1/sim", "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	bogusBody, err := io.ReadAll(bogusResp.Body)
	bogusResp.Body.Close()
	if err != nil {
		return err
	}
	var bogus svc.SimResponse
	if err := json.Unmarshal(bogusBody, &bogus); err != nil {
		return fmt.Errorf("unknown-ISA response body: %v\n%s", err, bogusBody)
	}
	if bogusResp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("unknown ISA answered status %d, want 400", bogusResp.StatusCode)
	}
	if bogus.ErrorCode != "bad_program" {
		return fmt.Errorf("unknown ISA error_code %q, want bad_program", bogus.ErrorCode)
	}
	if !strings.Contains(bogus.Error, "registered backends") {
		return fmt.Errorf("unknown-ISA error does not list the registry: %q", bogus.Error)
	}
	logger.Info("smoke: unknown ISA rejected with bad_program and the registry listing")

	// 4. Concurrent load: 32 identical sweeps at once. Each runs its own
	// pass, and each must answer phase 1's results from the program and
	// trace caches.
	const load = 32
	var wg sync.WaitGroup
	errs := make([]error, load)
	resps := make([]*svc.SimResponse, load)
	start := time.Now()
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = postSim(base, smokeRequest(fmt.Sprintf("smoke-load-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		r := resps[i]
		if r.ID != fmt.Sprintf("smoke-load-%d", i) {
			return fmt.Errorf("request %d answered with id %q", i, r.ID)
		}
		if r.ArtifactCache == nil || !r.ArtifactCache.Program || !r.ArtifactCache.Trace {
			return fmt.Errorf("request %d missed the artifact caches: %+v", i, r.ArtifactCache)
		}
		if len(r.Results) != len(want) {
			return fmt.Errorf("request %d returned %d results, want %d", i, len(r.Results), len(want))
		}
		for k := range want {
			if r.Results[k] != want[k] {
				return fmt.Errorf("request %d config %d diverges under load", i, k)
			}
		}
	}
	logger.Info("smoke: concurrent identical load answered from the artifact caches",
		"requests", load, "wall", time.Since(start).Round(time.Millisecond))

	// 5. Cache hits and engine stages must be visible on /metrics.
	metrics, err := fetch(base + "/metrics")
	if err != nil {
		return err
	}
	for _, check := range []struct {
		series string
		min    float64
	}{
		// The predictor and multi-axis sweeps and every request of the
		// load hit both caches.
		{`bsimd_artifact_cache_events_total{cache="trace",event="hit"}`, load + 2},
		{`bsimd_artifact_cache_events_total{cache="program",event="hit"}`, load + 2},
		// The unified sweep stage absorbs every grid shape: the phase-1
		// icache sweep, the predictor sweep, the multi-axis cross product,
		// and every request of the load.
		{`bsimd_stage_seconds_count{stage="sweep"}`, load + 3},
		// The single-config phase and the four backend requests replay.
		{`bsimd_stage_seconds_count{stage="replay"}`, 5},
	} {
		v, ok := metricValue(metrics, check.series)
		if !ok {
			return fmt.Errorf("metric %s missing from /metrics", check.series)
		}
		if v < check.min {
			return fmt.Errorf("metric %s = %g, want >= %g", check.series, v, check.min)
		}
	}
	// The store must have been involved: this process either wrote the smoke
	// artifacts through or (when CI re-runs the smoke on one -store dir) read
	// them back.
	hitsV, _ := metricValue(metrics, `bsimd_store_events_total{event="hit"}`)
	writesV, ok := metricValue(metrics, `bsimd_store_events_total{event="write"}`)
	if !ok || hitsV+writesV < 1 {
		return fmt.Errorf("store metrics show no traffic (hits %g, writes %g)", hitsV, writesV)
	}
	if v, _ := metricValue(metrics, `bsimd_store_events_total{event="corrupt"}`); v != 0 {
		return fmt.Errorf("store reports %g corrupt files", v)
	}
	if storeWarm {
		// The warm re-run serves everything so far from mmapped store files:
		// nothing recorded.
		if v, ok := metricValue(metrics, "bsimd_trace_records_total"); !ok || v != 0 {
			return fmt.Errorf("warm store run recorded %g traces (present %v), want 0", v, ok)
		}
	}
	logger.Info("smoke: cache, stage, and store metrics visible on /metrics")

	// 6. Restart warm start: a second server pointed at the same store
	// directory (a fresh svc.Store, as a restarted process would open) must
	// answer the phase-1 sweep identically with zero trace recordings — the
	// store, not the emulator, supplies the artifact.
	warmStore, err := svc.NewStore(cfg.Store.Dir())
	if err != nil {
		return err
	}
	warmCfg := cfg
	warmCfg.Store = warmStore
	warmSrv := svc.NewServer(warmCfg)
	defer warmSrv.Close()
	warmLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	warmHTTP := newHTTPServer(warmSrv.Handler())
	go func() { _ = warmHTTP.Serve(warmLn) }()
	defer warmHTTP.Close()
	warmBase := "http://" + warmLn.Addr().String()

	warmGot, err := postSim(warmBase, smokeRequest("smoke-warm-start"))
	if err != nil {
		return fmt.Errorf("warm start: %w", err)
	}
	if warmGot.ArtifactCache == nil || !warmGot.ArtifactCache.Store {
		return fmt.Errorf("warm start not served from the store: %+v", warmGot.ArtifactCache)
	}
	if !warmGot.ArtifactCache.Mmap {
		return fmt.Errorf("warm start served without mmap: %+v", warmGot.ArtifactCache)
	}
	if len(warmGot.Results) != len(want) {
		return fmt.Errorf("warm start returned %d results, want %d", len(warmGot.Results), len(want))
	}
	for i := range want {
		if warmGot.Results[i] != want[i] {
			return fmt.Errorf("warm start config %d diverges from the cold pass\nwarm: %+v\ncold: %+v",
				i, warmGot.Results[i], want[i])
		}
	}
	warmMetrics, err := fetch(warmBase + "/metrics")
	if err != nil {
		return err
	}
	if v, ok := metricValue(warmMetrics, "bsimd_trace_records_total"); !ok || v != 0 {
		return fmt.Errorf("warm start recorded %g traces (present %v), want 0", v, ok)
	}
	if v, ok := metricValue(warmMetrics, `bsimd_store_events_total{event="hit"}`); !ok || v < 1 {
		return fmt.Errorf("warm start store hits = %g (present %v), want >= 1", v, ok)
	}
	if v, ok := metricValue(warmMetrics, `bsimd_store_mmap_events_total{event="map"}`); !ok || v < 1 {
		return fmt.Errorf("warm start mmap maps = %g (present %v), want >= 1", v, ok)
	}
	logger.Info("smoke: restarted server served the sweep from mmapped store files with zero recordings",
		"store", cfg.Store.Dir())
	return nil
}

// directSweep computes the same answer bsim -sweep-icache / -sweep-pred
// would: compile, record, and run the unified sweep engine directly, using
// svc.BuildConfig for the configs so the service and the check share one
// config-assembly path. Predictor points are echoed like the service does,
// so multi-axis grids compare field-for-field.
func directSweep(req *svc.SimRequest) ([]svc.SimResult, error) {
	plan, err := svc.BuildConfig(req)
	if err != nil {
		return nil, err
	}
	prof, ok := workload.ProfileByName("compress", smokeScale)
	if !ok {
		return nil, fmt.Errorf("no compress profile")
	}
	src, err := workload.Source(prof)
	if err != nil {
		return nil, err
	}
	prog, err := compile.Compile(src, "compress", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		return nil, err
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		return nil, err
	}
	if ok, reason := uarch.CanSweep(plan.Configs); !ok {
		return nil, fmt.Errorf("smoke grid should be sweepable: %s", reason)
	}
	rs, err := uarch.Sweep(tr, plan.Configs)
	if err != nil {
		return nil, err
	}
	out := make([]svc.SimResult, len(rs))
	for i, r := range rs {
		out[i] = svc.ResultOf(plan.ICacheBytes[i], r)
		if plan.Predictors != nil {
			out[i].Predictor = plan.Predictors[i]
		}
	}
	return out, nil
}

// directBackendRun computes the sequential-engine answer for one backend's
// single-config request — compile for the backend's kind, run its shaping
// pass, record, replay — the same pipeline the service runs per ISA.
func directBackendRun(req *svc.SimRequest) (*svc.SimResult, error) {
	plan, err := svc.BuildConfig(req)
	if err != nil {
		return nil, err
	}
	be, err := backend.Get(req.Program.ISA)
	if err != nil {
		return nil, err
	}
	prof, ok := workload.ProfileByName("compress", smokeScale)
	if !ok {
		return nil, fmt.Errorf("no compress profile")
	}
	src, err := workload.Source(prof)
	if err != nil {
		return nil, err
	}
	prog, err := compile.Compile(src, "compress", compile.DefaultOptions(be.Kind()))
	if err != nil {
		return nil, err
	}
	if _, err := be.Shape(prog, core.Params{}); err != nil {
		return nil, err
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		return nil, err
	}
	r, err := uarch.ReplayTrace(tr, plan.Configs[0])
	if err != nil {
		return nil, err
	}
	out := svc.ResultOf(plan.ICacheBytes[0], r)
	return &out, nil
}

// directReplay computes the sequential-engine answer for a single-config
// request: the reference the service's single-config replay must reproduce
// exactly.
func directReplay(req *svc.SimRequest) (*svc.SimResult, error) {
	plan, err := svc.BuildConfig(req)
	if err != nil {
		return nil, err
	}
	prof, ok := workload.ProfileByName("compress", smokeScale)
	if !ok {
		return nil, fmt.Errorf("no compress profile")
	}
	src, err := workload.Source(prof)
	if err != nil {
		return nil, err
	}
	prog, err := compile.Compile(src, "compress", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		return nil, err
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		return nil, err
	}
	r, err := uarch.ReplayTrace(tr, plan.Configs[0])
	if err != nil {
		return nil, err
	}
	out := svc.ResultOf(plan.ICacheBytes[0], r)
	return &out, nil
}

func postSim(base string, req *svc.SimRequest) (*svc.SimResponse, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpResp, err := http.Post(base+"/v1/sim", "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	var resp svc.SimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("bad response body: %v\n%s", err, body)
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", httpResp.StatusCode, resp.Error)
	}
	return &resp, nil
}

func checkHealth(base string) error {
	body, err := fetch(base + "/healthz")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "ok") {
		return fmt.Errorf("healthz: %q", body)
	}
	return nil
}

func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// metricValue extracts a sample value from Prometheus text format by exact
// series-name prefix.
func metricValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
