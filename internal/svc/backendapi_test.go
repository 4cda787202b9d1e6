package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"bsisa/internal/backend"
)

// TestServerFourBackends is the registry acceptance check: every registered
// ISA backend must answer a single-config request over HTTP, field-for-field
// identical to the reference compile → shape → record → replay path.
func TestServerFourBackends(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)

	for _, be := range backend.All() {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: be.Name()},
			Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
		}
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", be.Name(), status, resp.Error)
		}
		requireResults(t, be.Name(), resp.Results, referenceResults(t, req))
	}
}

// TestErrorCodeMapping pins the errors.Is → wire-code taxonomy.
func TestErrorCodeMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("x: %w", ErrBadVersion), "bad_version"},
		{fmt.Errorf("x: %w", ErrBadProgram), "bad_program"},
		{fmt.Errorf("x: %w", ErrBadGeometry), "bad_geometry"},
		{fmt.Errorf("x: %w", ErrBadSweep), "bad_sweep"},
		{fmt.Errorf("x: %w", ErrBadRequest), "bad_request"},
		{errDraining, "unavailable"},
		{errNoSlot, "unavailable"},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), "timeout"},
		{fmt.Errorf("x: %w", context.Canceled), "canceled"},
		{errors.New("disk on fire"), "internal"},
	} {
		if got := ErrorCode(tc.err); got != tc.want {
			t.Errorf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// oversize is a single-config request for cfg on a small generated program.
func oversize(cfg ConfigSpec) *SimRequest {
	seed := int64(1)
	return &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"}, Config: &cfg}
}

// TestServerErrorCodes requires rejected requests to carry the
// machine-readable error_code alongside the text, and the unknown-ISA
// rejection to list the registry.
func TestServerErrorCodes(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(1)
	historyAxis := make([]int, 32)
	for i := range historyAxis {
		historyAxis[i] = i + 1
	}
	cases := []struct {
		name       string
		req        *SimRequest
		wantStatus int
		wantCode   string
	}{
		{"bad version", &SimRequest{Version: 9, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config: &ConfigSpec{}}, http.StatusBadRequest, "bad_version"},
		{"unknown isa", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "vliw"},
			Config: &ConfigSpec{}}, http.StatusBadRequest, "bad_program"},
		{"bad geometry", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config: &ConfigSpec{ICache: &CacheSpec{SizeBytes: 3000}}}, http.StatusBadRequest, "bad_geometry"},
		// The FU scoreboard every engine runs holds per-cycle byte counts.
		{"fus beyond the scoreboard", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config: &ConfigSpec{NumFUs: 256}}, http.StatusBadRequest, "bad_geometry"},
		{"bad sweep", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep: &SweepSpec{}}, http.StatusBadRequest, "bad_sweep"},
		// Valid geometry past the caps: each would have an engine allocate
		// a table of its size.
		{"icache over the cap", oversize(ConfigSpec{ICache: &CacheSpec{SizeBytes: 1 << 40}}),
			http.StatusBadRequest, "bad_geometry"},
		{"icache line over the cap", oversize(ConfigSpec{ICache: &CacheSpec{LineBytes: maxLineBytes * 2}}),
			http.StatusBadRequest, "bad_geometry"},
		{"dcache over the cap", oversize(ConfigSpec{DCache: &CacheSpec{SizeBytes: maxCacheBytes * 2}}),
			http.StatusBadRequest, "bad_geometry"},
		{"icache lines over the cap", oversize(ConfigSpec{ICache: &CacheSpec{SizeBytes: 1 << 20, Ways: 1, LineBytes: 8}}),
			http.StatusBadRequest, "bad_geometry"},
		{"dcache line over the cap", oversize(ConfigSpec{DCache: &CacheSpec{SizeBytes: 1 << 20, Ways: 1, LineBytes: 1 << 20}}),
			http.StatusBadRequest, "bad_geometry"},
		{"pht over the cap", oversize(ConfigSpec{Predictor: &PredictorSpec{PHTEntries: 1 << 32}}),
			http.StatusBadRequest, "bad_geometry"},
		{"btb sets over the cap", oversize(ConfigSpec{Predictor: &PredictorSpec{BTBSets: 1 << 40, BTBWays: 1}}),
			http.StatusBadRequest, "bad_geometry"},
		{"btb ways over the cap", oversize(ConfigSpec{Predictor: &PredictorSpec{BTBWays: 1 << 30}}),
			http.StatusBadRequest, "bad_geometry"},
		{"btb entries over the cap", oversize(ConfigSpec{Predictor: &PredictorSpec{BTBSets: 1 << 12, BTBWays: 1 << 5}}),
			http.StatusBadRequest, "bad_geometry"},
		{"ras over the cap", oversize(ConfigSpec{Predictor: &PredictorSpec{RASDepth: 1 << 33}}),
			http.StatusBadRequest, "bad_geometry"},
		{"window over the cap", oversize(ConfigSpec{WindowBlocks: 1 << 40}),
			http.StatusBadRequest, "bad_geometry"},
		{"front end depth over the cap", oversize(ConfigSpec{FrontEndDepth: 1 << 40}),
			http.StatusBadRequest, "bad_geometry"},
		{"l2 latency over the cap", oversize(ConfigSpec{L2Latency: 1 << 40}),
			http.StatusBadRequest, "bad_geometry"},
		{"fault squash penalty over the cap", oversize(ConfigSpec{FaultSquashPenalty: 1 << 62}),
			http.StatusBadRequest, "bad_geometry"},
		{"swept icache over the cap", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep: &SweepSpec{ICacheSizes: []int{1024, 1 << 40}}}, http.StatusBadRequest, "bad_geometry"},
		{"swept pht over the cap", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep: &SweepSpec{PHTEntries: []int{1024, 1 << 32}}}, http.StatusBadRequest, "bad_geometry"},
		// Every point within the caps, but 96 predictor classes of about
		// 4 MiB each.
		{"sweep tables over the budget", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep: &SweepSpec{HistoryBits: historyAxis, PHTEntries: []int{1 << 18, 1 << 19, 1 << 20}, BTBSets: []int{1 << 14},
				ICacheSizes: []int{4 << 20}}}, http.StatusBadRequest, "bad_sweep"},
		{"no engine", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"}},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, resp := post(t, ts, tc.req)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, resp.Error)
			}
			if resp.ErrorCode != tc.wantCode {
				t.Fatalf("error_code %q, want %q (error: %s)", resp.ErrorCode, tc.wantCode, resp.Error)
			}
			if resp.Error == "" {
				t.Fatal("envelope carries a code but no error text")
			}
			if strings.HasSuffix(tc.name, "over the cap") && !strings.Contains(resp.Error, "exceeds the cap") {
				t.Fatalf("rejected by something other than a geometry cap: %s", resp.Error)
			}
			if strings.HasSuffix(tc.name, "over the budget") && !strings.Contains(resp.Error, "over the sweep budget") {
				t.Fatalf("rejected by something other than the sweep budget: %s", resp.Error)
			}
		})
	}

	// The unknown-ISA text lists every registered backend.
	_, resp := post(t, ts, cases[1].req)
	if !strings.Contains(resp.Error, "registered backends") ||
		!strings.Contains(resp.Error, "basicblocker") {
		t.Fatalf("unknown-ISA error does not list the registry: %q", resp.Error)
	}

	// Successful responses carry no code.
	okStatus, okResp := post(t, ts, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if okStatus != http.StatusOK || okResp.ErrorCode != "" {
		t.Fatalf("ok response: status %d, error_code %q", okStatus, okResp.ErrorCode)
	}
}
