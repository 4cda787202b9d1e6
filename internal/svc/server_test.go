package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

func quietConfig() ServerConfig {
	return ServerConfig{
		Workers: 4,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// testServer starts a Server behind httptest and tears both down in order
// (listener first, so no request arrives while the server drains).
func testServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, req *SimRequest) (int, *SimResponse) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SimResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return httpResp.StatusCode, &resp
}

// referenceResults answers req the slow way, sharing only BuildConfig with
// the server: it compiles the plan's program for its backend, runs the
// backend's shaping pass, records the trace, and replays each configuration
// on its own through uarch.ReplayTrace. It calls neither buildProgram nor
// uarch.Run, so every sweep the server answers is checked against
// per-configuration replay.
func referenceResults(t *testing.T, req *SimRequest) []SimResult {
	t.Helper()
	plan, err := BuildConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Program
	src := p.Source
	switch {
	case p.Seed != nil:
		src = testgen.Program(*p.Seed)
	case p.Workload != "":
		prof, ok := workload.ProfileByName(p.Workload, p.Scale)
		if !ok {
			t.Fatalf("no %s profile", p.Workload)
		}
		if src, err = workload.Source(prof); err != nil {
			t.Fatal(err)
		}
	}
	be, err := backend.Get(p.ISA)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(src, "reference", compile.DefaultOptions(be.Kind()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Shape(prog, plan.EnlargeParams()); err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, plan.EmuCfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]SimResult, len(plan.Configs))
	for i, cfg := range plan.Configs {
		r, err := uarch.ReplayTrace(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ResultOf(plan.ICacheBytes[i], r)
		if plan.Predictors != nil {
			out[i].Predictor = plan.Predictors[i]
		}
	}
	return out
}

// requireResults requires the service's results to equal the reference's
// field for field, comparing predictor echoes by value.
func requireResults(t *testing.T, label string, got, want []SimResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if (g.Predictor == nil) != (w.Predictor == nil) || g.Predictor != nil && *g.Predictor != *w.Predictor {
			t.Fatalf("%s: result %d predictor echo %+v, want %+v", label, i, g.Predictor, w.Predictor)
		}
		g.Predictor, w.Predictor = nil, nil
		if g != w {
			t.Fatalf("%s: result %d diverges:\nservice:   %+v\nreference: %+v", label, i, g, w)
		}
	}
}

// TestServerMatchesLibraryPath is the API-redesign acceptance check: icache
// sweeps and a single-config job answered over HTTP must be field-for-field
// identical to the reference path, for both ISAs on a generated program and
// for Figure 6's question on compress.
func TestServerMatchesLibraryPath(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)

	for _, tc := range []struct {
		label string
		prog  ProgramSpec
		sizes []int
	}{
		{"conv", ProgramSpec{Seed: &seed, ISA: "conv"}, []int{0, 2048, 4096}},
		{"bsa", ProgramSpec{Seed: &seed, ISA: "bsa"}, []int{0, 2048, 4096}},
		// The conventional ISA under a perfect icache and the scaled
		// 8/16/32 KB grid.
		{"compress figure 6", ProgramSpec{Workload: "compress", Scale: 0.05, ISA: "conv"},
			[]int{0, 8 << 10, 16 << 10, 32 << 10}},
		// One fetch that misses more lines than a byte counts.
		{"long block", ProgramSpec{Source: longBlockSource(), ISA: "conv"}, []int{256, 512}},
	} {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: tc.prog,
			Sweep:   &SweepSpec{ICacheSizes: tc.sizes},
		}
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.label, status, resp.Error)
		}
		if resp.Version != SchemaVersion || resp.Experiment != "sweep" {
			t.Fatalf("%s: envelope %+v", tc.label, resp)
		}
		if resp.Engine != "sweep" {
			t.Fatalf("%s: engine %q, want the unified sweep", tc.label, resp.Engine)
		}
		requireResults(t, tc.label, resp.Results, referenceResults(t, req))
	}

	// Single-config jobs route through per-config replay.
	req := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
	}
	status, resp := post(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	if resp.Engine != "simulate-many" {
		t.Fatalf("engine %q, want simulate-many for a single config", resp.Engine)
	}
	if resp.Experiment != "sim" {
		t.Fatalf("envelope %+v", resp)
	}
	requireResults(t, "single config", resp.Results, referenceResults(t, req))
}

// longBlockSource is a valid MiniC program of about 114 KB whose main is
// one straight-line block spanning some 1,500 64-byte icache lines.
func longBlockSource() string {
	var sb strings.Builder
	sb.WriteString("func main() {\n    var a; var b;\n    a = 1; b = 2;\n")
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "    a = a + b * %d;\n", i%7+1)
	}
	sb.WriteString("    out(a);\n}\n")
	return sb.String()
}

// TestServerPredictorSweep answers predictor grids over HTTP after an icache
// sweep of the same program, and requires each grid to (a) replay the cached
// trace on the unified sweep engine and (b) match the reference path field
// for field, predictor echoes included, for both ISAs. The grids are a
// history × PHT grid without an icache axis and a history × icache cross
// product.
func TestServerPredictorSweep(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)

	for _, isaName := range []string{"conv", "bsa"} {
		prog := ProgramSpec{Seed: &seed, ISA: isaName}
		status, resp := post(t, ts, &SimRequest{
			Version: SchemaVersion,
			Program: prog,
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
		})
		if status != http.StatusOK {
			t.Fatalf("%s: icache sweep: status %d: %s", isaName, status, resp.Error)
		}
		for _, tc := range []struct {
			label string
			sweep *SweepSpec
		}{
			{"history×pht", &SweepSpec{
				HistoryBits: []int{2, 8, 16},
				PHTEntries:  []int{1024, 8192},
				Base:        &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
			}},
			{"history×icache", &SweepSpec{HistoryBits: []int{4, 12}, ICacheSizes: []int{2048, 8192}}},
		} {
			label := isaName + " " + tc.label
			req := &SimRequest{Version: SchemaVersion, Program: prog, Sweep: tc.sweep}
			status, resp := post(t, ts, req)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", label, status, resp.Error)
			}
			if resp.Experiment != "sweep" || resp.Engine != "sweep" {
				t.Fatalf("%s: experiment %q on engine %q, want a sweep on the unified engine",
					label, resp.Experiment, resp.Engine)
			}
			if resp.ArtifactCache == nil || !resp.ArtifactCache.Trace {
				t.Fatalf("%s: missed the trace cache: %+v", label, resp.ArtifactCache)
			}
			want := referenceResults(t, req)
			requireResults(t, label, resp.Results, want)
			if resp.Table == nil || len(resp.Table.Rows) != len(want) {
				t.Fatalf("%s: table malformed: %+v", label, resp.Table)
			}
		}
	}
}

// TestServerSingleConfigEngine requires a single-config job to take one live
// replay, with the answer field-for-field identical to the reference path,
// and every job's engine to be the one uarch.RouteFor picks for its plan.
func TestServerSingleConfigEngine(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)
	run := func(label string, req *SimRequest) *SimResponse {
		t.Helper()
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, status, resp.Error)
		}
		plan, err := BuildConfig(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := string(uarch.RouteFor(plan.Configs).Engine); resp.Engine != want {
			t.Fatalf("%s: engine %q, want %q", label, resp.Engine, want)
		}
		return resp
	}

	// The request schema has no trace-cache knob, so the second single
	// config varies what it can: perfect icache and perfect prediction.
	for label, spec := range map[string]*ConfigSpec{
		"plain":   {ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
		"perfect": {PerfectBP: true},
	} {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config:  spec,
		}
		resp := run(label, req)
		if resp.Engine != string(uarch.EngineMany) {
			t.Fatalf("%s: engine %q, want %q", label, resp.Engine, uarch.EngineMany)
		}
		requireResults(t, label, resp.Results, referenceResults(t, req))
	}

	for label, sw := range map[string]*SweepSpec{
		"icache":         {ICacheSizes: []int{0, 2048, 8192}},
		"history×icache": {ICacheSizes: []int{2048, 8192}, HistoryBits: []int{4, 12}},
	} {
		resp := run(label, &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:   sw,
		})
		if resp.Engine != string(uarch.EngineSweep) {
			t.Fatalf("%s: engine %q, want %q", label, resp.Engine, uarch.EngineSweep)
		}
	}
}

// TestServerPredecodeCache requires repeated sweeps over one program to reuse
// the predecoded op tables, and the reuse to be reported in the envelope.
func TestServerPredecodeCache(t *testing.T) {
	s, ts := testServer(t, quietConfig())
	seed := int64(11)
	mk := func() *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048, 4096}},
		}
	}
	status, first := post(t, ts, mk())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first.Error)
	}
	if first.ArtifactCache == nil || first.ArtifactCache.Predecode {
		t.Fatalf("first sweep should miss the predecode cache: %+v", first.ArtifactCache)
	}
	status, second := post(t, ts, mk())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, second.Error)
	}
	if !second.ArtifactCache.Predecode {
		t.Fatalf("second sweep should hit the predecode cache: %+v", second.ArtifactCache)
	}
	for i, r := range second.Results {
		if r != first.Results[i] {
			t.Fatalf("result %d diverges across the predecode cache hit", i)
		}
	}
	if pc := s.predecodes.counters(); pc.Misses != 1 || pc.Hits < 1 {
		t.Fatalf("predecode cache counters %+v, want 1 miss and >= 1 hit", pc)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	v := fmt.Sprintf(`{"version":%d`, SchemaVersion)
	cases := []struct {
		name string
		body string
	}{
		{"unknown field", v + `,"bogus":1}`},
		{"wrong version", `{"version":9,"program":{"seed":1,"isa":"conv"},"config":{}}`},
		{"bad geometry", v + `,"program":{"seed":1,"isa":"conv"},"config":{"icache":{"size_bytes":3000}}}`},
		{"no engine selected", v + `,"program":{"seed":1,"isa":"conv"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer httpResp.Body.Close()
			if httpResp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", httpResp.StatusCode)
			}
			var resp SimResponse
			if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			if resp.Error == "" {
				t.Fatal("400 envelope carries no error text")
			}
		})
	}
}

// TestServerRejectsOversizedBody posts a body one byte over the limit: the
// server must stop reading, answer 413 with error_code bad_request, and count
// the request as a rejection.
func TestServerRejectsOversizedBody(t *testing.T) {
	s, ts := testServer(t, quietConfig())
	body := fmt.Sprintf(`{"version":%d,"program":{"isa":"conv","source":"`, SchemaVersion)
	body += strings.Repeat("x", maxRequestBytes+1-len(body))
	httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", httpResp.StatusCode)
	}
	var resp SimResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ErrorCode != "bad_request" {
		t.Fatalf("error_code %q (%s), want bad_request", resp.ErrorCode, resp.Error)
	}
	if got := s.metrics.jobsRejected.Load(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
}

// TestServerRejectsDeepNesting posts two sources that fit under the body cap
// but nest two million levels deep — parentheses, and a left-deep chain of
// additions. Walking either tree recursively would overflow the stack and
// kill the process; the parser's nesting bound must turn both into a
// bad_program envelope, and the server must go on to serve a normal request.
func TestServerRejectsDeepNesting(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	const n = 2_000_000
	for name, src := range map[string]string{
		"parentheses":    "func main() { out(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "); }",
		"operator chain": "func main() { out(1" + strings.Repeat("+1", n-1) + "); }",
	} {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Source: src, ISA: "conv"},
			Config:  &ConfigSpec{},
		}
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) > maxRequestBytes {
			t.Fatalf("%s: body of %d bytes exceeds the %d-byte cap", name, len(blob), maxRequestBytes)
		}
		status, resp := post(t, ts, req)
		if status != http.StatusBadRequest || resp.ErrorCode != "bad_program" {
			t.Fatalf("%s: status %d, error_code %q (%s), want 400 bad_program", name, status, resp.ErrorCode, resp.Error)
		}
	}
	seed := int64(1)
	status, resp := post(t, ts, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if status != http.StatusOK || len(resp.Results) != 1 {
		t.Fatalf("normal request after the attack: status %d: %s", status, resp.Error)
	}
}

// TestServerBoundsRecording posts requests that would otherwise record
// without bound. A loop of blocks without operations answers timeout under a
// 200 ms deadline and bad_program at the server's emulation cap without one;
// a budget over the cap and a scale over the bound answer 400. The server
// then serves a normal request.
func TestServerBoundsRecording(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	loop := ProgramSpec{Source: `func main() { while (1) { } return 0; }`, ISA: "bsa"}
	seed := int64(1)
	for _, tc := range []struct {
		name   string
		req    SimRequest
		status int
		code   string
	}{
		{"loop under a deadline", SimRequest{Program: loop, TimeoutMs: 200}, http.StatusGatewayTimeout, "timeout"},
		{"loop at the cap", SimRequest{Program: loop}, http.StatusBadRequest, "bad_program"},
		{"budget over the cap", SimRequest{Program: ProgramSpec{Seed: &seed, ISA: "conv"}, EmuMaxOps: maxEmuOps + 1},
			http.StatusBadRequest, "bad_request"},
		{"scale over the bound", SimRequest{Program: ProgramSpec{Workload: "compress", Scale: 1.5, ISA: "conv"}},
			http.StatusBadRequest, "bad_program"},
	} {
		tc.req.Version = SchemaVersion
		tc.req.Config = &ConfigSpec{}
		status, resp := post(t, ts, &tc.req)
		if status != tc.status || resp.ErrorCode != tc.code {
			t.Fatalf("%s: status %d, error_code %q (%s), want %d %s", tc.name, status, resp.ErrorCode, resp.Error, tc.status, tc.code)
		}
	}
	status, resp := post(t, ts, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if status != http.StatusOK || len(resp.Results) != 1 {
		t.Fatalf("normal request after the attack: status %d: %s", status, resp.Error)
	}
}

// TestServerJobTimeout posts a job whose deadline cannot be met and expects
// 504 with the context error recorded in the envelope.
func TestServerJobTimeout(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	req := &SimRequest{
		Version:   SchemaVersion,
		Program:   ProgramSpec{Workload: "compress", Scale: 0.5, ISA: "conv"},
		Sweep:     &SweepSpec{ICacheSizes: []int{0, 2048, 4096, 8192}},
		TimeoutMs: 1,
	}
	status, resp := post(t, ts, req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (err %q), want 504", status, resp.Error)
	}
	if resp.Error == "" {
		t.Fatal("timeout envelope carries no error text")
	}
}

// TestServerBoundsConcurrentJobs holds the only worker slot and requires a
// request that outwaits its deadline to be answered 503 "unavailable",
// counted as a rejection, and no longer counted as waiting; once the slot
// frees, the same request runs.
func TestServerBoundsConcurrentJobs(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 1
	s, ts := testServer(t, cfg)
	// A tiny program, so the run after the slot frees finishes well
	// inside the deadline even under the race detector.
	req := &SimRequest{
		Version:   SchemaVersion,
		Program:   ProgramSpec{Source: "func main() { out(1); }", ISA: "conv"},
		Config:    &ConfigSpec{},
		TimeoutMs: 100,
	}

	s.slots <- struct{}{} // the test holds the only slot
	status, resp := post(t, ts, req)
	if status != http.StatusServiceUnavailable || resp.ErrorCode != "unavailable" {
		t.Fatalf("with no free slot: status %d, error_code %q (%s), want 503 unavailable",
			status, resp.ErrorCode, resp.Error)
	}
	if got := metricValue(t, ts, "bsimd_requests_rejected_total"); got != 1 {
		t.Fatalf("bsimd_requests_rejected_total = %g, want 1", got)
	}
	if got := metricValue(t, ts, "bsimd_jobs_queued"); got != 0 {
		t.Fatalf("bsimd_jobs_queued = %g after the request gave up, want 0", got)
	}

	<-s.slots
	if status, resp := post(t, ts, req); status != http.StatusOK {
		t.Fatalf("with the slot free: status %d: %s", status, resp.Error)
	}
}

// TestServerCloseWaitsForAdmittedJobs starts Close while a request waits
// for the only worker slot: Close must not return before that request has
// run and answered, and a request arriving meanwhile is refused.
func TestServerCloseWaitsForAdmittedJobs(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 1
	s, ts := testServer(t, cfg)
	req := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Source: "func main() { out(1); }", ISA: "conv"},
		Config:  &ConfigSpec{},
	}

	s.slots <- struct{}{} // the test holds the only slot
	release := sync.OnceFunc(func() { <-s.slots })
	t.Cleanup(release) // runs before testServer's cleanup drains the server
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	waiting := make(chan int, 1)
	go func() {
		httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Error(err)
			waiting <- 0
			return
		}
		httpResp.Body.Close()
		waiting <- httpResp.StatusCode
	}()
	waitUntil(t, "the request to wait for the slot", func() bool { return s.metrics.queued.Load() == 1 })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitUntil(t, "Close to stop the server", func() bool {
		s.stopMu.RLock()
		defer s.stopMu.RUnlock()
		return s.stopped
	})
	if status, resp := post(t, ts, req); status != http.StatusServiceUnavailable || resp.ErrorCode != "unavailable" {
		t.Fatalf("request during drain: status %d, error_code %q, want 503 unavailable", status, resp.ErrorCode)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted request was still waiting for its slot")
	default:
	}

	release()
	if status := <-waiting; status != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", status)
	}
	<-closed
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape fetches /metrics and returns every sample keyed by its series,
// labels included.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		samples[series] = v
	}
	return samples
}

// metricValue scrapes /metrics and returns one series' value.
func metricValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	v, ok := scrape(t, ts)[series]
	if !ok {
		t.Fatalf("/metrics has no %s", series)
	}
	return v
}

// TestServerConcurrentCachedLoad fires 32 concurrent identical sweeps, each
// under its own id, and requires (a) every answer identical and echoing its
// request's id, (b) one compile and one trace recording total. Every request
// runs its own pass, so each of the 32 is one hit on each cache.
func TestServerConcurrentCachedLoad(t *testing.T) {
	s, ts := testServer(t, quietConfig())
	seed := int64(123)
	mk := func(id string) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			ID:      id,
			Program: ProgramSpec{Seed: &seed, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
		}
	}
	// Warm the caches.
	status, first := post(t, ts, mk("warmup"))
	if status != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", status, first.Error)
	}
	if first.ArtifactCache == nil || first.ArtifactCache.Program || first.ArtifactCache.Trace {
		t.Fatalf("warmup should miss both caches: %+v", first.ArtifactCache)
	}

	const load = 32
	var wg sync.WaitGroup
	resps := make([]*SimResponse, load)
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := post(t, ts, mk(fmt.Sprintf("load-%d", i)))
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, resp.Error)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if resp == nil {
			t.Fatalf("request %d failed", i)
		}
		if want := fmt.Sprintf("load-%d", i); resp.ID != want {
			t.Fatalf("request %d answered with id %q, want %q", i, resp.ID, want)
		}
		if !resp.ArtifactCache.Program || !resp.ArtifactCache.Trace {
			t.Fatalf("request %d missed the artifact cache: %+v", i, resp.ArtifactCache)
		}
		for j, r := range resp.Results {
			if r != first.Results[j] {
				t.Fatalf("request %d result %d diverges from warmup", i, j)
			}
		}
	}
	if pc := s.programs.counters(); pc.Misses != 1 || pc.Hits != load {
		t.Fatalf("program cache counters %+v, want 1 miss and %d hits", pc, load)
	}
	if tc := s.traces.counters(); tc.Misses != 1 || tc.Hits != load {
		t.Fatalf("trace cache counters %+v, want 1 miss and %d hits", tc, load)
	}
}

// TestServerDrain checks graceful shutdown: every answered job completes, no
// goroutine outlives Close, and a request after Close is refused.
func TestServerDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewServer(quietConfig())
	ts := httptest.NewServer(s.Handler())

	seed := int64(9)
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, ts, &SimRequest{
				Version: SchemaVersion,
				Program: ProgramSpec{Seed: &seed, ISA: "conv"},
				Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
			})
		}(i)
	}
	wg.Wait() // each handler runs its own job, so all are done
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after drain: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}

	// Submitting after Close is refused, not deadlocked or panicking.
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	status, resp := post(t, ts2, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post after Close: status %d (err %q), want 503", status, resp.Error)
	}
}

// TestServerHealthz covers the liveness endpoint.
func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: status %d, body %q, want 200 \"ok\\n\"", resp.StatusCode, body)
	}
}

// TestServerWorkloadJob exercises the workload program source end to end.
func TestServerWorkloadJob(t *testing.T) {
	if _, ok := workload.ProfileByName("compress", 0.02); !ok {
		t.Skip("no compress profile")
	}
	_, ts := testServer(t, quietConfig())
	status, resp := post(t, ts, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", Scale: 0.02, ISA: "conv"},
		Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 4096, Ways: 4}},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	if resp.Scale != 0.02 {
		t.Fatalf("scale not echoed: %+v", resp)
	}
	if resp.Table == nil || len(resp.Table.Rows) != 1 {
		t.Fatalf("table malformed: %+v", resp.Table)
	}
}
