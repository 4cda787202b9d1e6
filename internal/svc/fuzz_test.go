package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"bsisa/internal/uarch"
)

// FuzzDecodeRequest feeds arbitrary request bodies through the service's
// trust boundary: DecodeRequest, then BuildConfig. Neither may panic, every
// failure must classify as a client error (ErrBadRequest), and every
// accepted request must yield a plan with one echoed icache size per
// configuration, every configuration within the geometry caps, and, for a
// sweep, its tables within the sweep budget.
func FuzzDecodeRequest(f *testing.F) {
	seed := int64(42)
	axis := make([]int, 64)
	for i := range axis {
		axis[i] = 1 << (i % 16)
	}
	history := make([]int, 32)
	for i := range history {
		history[i] = i + 1
	}
	for _, req := range []*SimRequest{
		{
			Program: ProgramSpec{Workload: "compress", Scale: 0.05, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048, 8192}},
		},
		{
			Program: ProgramSpec{Workload: "li", ISA: "conv"},
			Sweep:   &SweepSpec{HistoryBits: []int{4, 10}, ICacheSizes: []int{4096, 16384}},
		},
		{
			Program: ProgramSpec{Workload: "go", ISA: "bb"},
			Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 4096, Ways: 4}},
		},
		{
			Program: ProgramSpec{Source: "func main() { out(1); }", ISA: "fused"},
			Config:  &ConfigSpec{},
		},
		{
			// A few hundred bytes naming 64^4 grid points: bounded by
			// maxSweepConfigs before anything expands.
			Program: ProgramSpec{Workload: "gcc", ISA: "conv"},
			Sweep:   &SweepSpec{HistoryBits: axis, PHTEntries: axis, BTBSets: axis, ICacheSizes: axis},
		},
		{
			Program:   ProgramSpec{Seed: &seed, ISA: "block-structured", Enlarge: &EnlargeSpec{MaxOps: 8}},
			Sweep:     &SweepSpec{ICacheSizes: []int{1024}},
			TimeoutMs: 500,
		},
		{
			// Valid geometry past every cap.
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config: &ConfigSpec{
				WindowBlocks: 1 << 40, FrontEndDepth: 1 << 40, L2Latency: 1 << 40, FaultSquashPenalty: 1 << 62,
				ICache:    &CacheSpec{SizeBytes: 1 << 40},
				DCache:    &CacheSpec{SizeBytes: 1 << 20, Ways: 1, LineBytes: 1 << 20},
				Predictor: &PredictorSpec{PHTEntries: 1 << 32, BTBSets: 1 << 20, BTBWays: 1 << 30, RASDepth: 1 << 33},
			},
		},
		{
			// Every point within the caps, the grid over the sweep budget.
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep: &SweepSpec{HistoryBits: history, PHTEntries: []int{1 << 18, 1 << 19, 1 << 20}, BTBSets: []int{1 << 14},
				ICacheSizes: []int{4 << 20}},
		},
	} {
		req.Version = SchemaVersion
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// One seed per checkGeometry row, in its order: valid geometry with a
	// single knob past its cap and every other row passing, so deleting any
	// row lets a plan past the caps through. The BTB sets and ways seeds
	// overflow the product row to zero.
	for _, cfg := range []ConfigSpec{
		{ICache: &CacheSpec{SizeBytes: 2 * maxCacheBytes, LineBytes: 128}},
		{ICache: &CacheSpec{SizeBytes: 64 << 10, LineBytes: 2 * maxLineBytes}},
		{DCache: &CacheSpec{SizeBytes: 2 * maxCacheBytes, LineBytes: 128}},
		{DCache: &CacheSpec{SizeBytes: 64 << 10, LineBytes: 2 * maxLineBytes}},
		{ICache: &CacheSpec{SizeBytes: 1 << 20, Ways: 1, LineBytes: 8}},
		{DCache: &CacheSpec{SizeBytes: 1 << 20, Ways: 1, LineBytes: 8}},
		{Predictor: &PredictorSpec{PHTEntries: 2 * maxPHTEntries}},
		{Predictor: &PredictorSpec{BTBSets: 1 << 48, BTBWays: maxBTBEntries}},
		{Predictor: &PredictorSpec{BTBSets: maxBTBEntries, BTBWays: 1 << 48}},
		{Predictor: &PredictorSpec{BTBSets: 1 << 12, BTBWays: 1 << 5}},
		{Predictor: &PredictorSpec{RASDepth: 2 * maxRASDepth}},
		{WindowBlocks: 2 * maxWindowBlocks},
		{FrontEndDepth: 2 * maxFrontEndDepth},
		{L2Latency: 2 * maxL2Latency},
		{FaultSquashPenalty: 2 * maxFaultSquashPenalty},
	} {
		blob, err := json.Marshal(&SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"}, Config: &cfg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode failure is not a bad request: %v", err)
			}
			return
		}
		plan, err := BuildConfig(req)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("config failure is not a bad request: %v", err)
			}
			return
		}
		if len(plan.Configs) == 0 || len(plan.ICacheBytes) != len(plan.Configs) {
			t.Fatalf("plan has %d configs and %d icache sizes", len(plan.Configs), len(plan.ICacheBytes))
		}
		for i, cfg := range plan.Configs {
			if !withinCaps(cfg) {
				t.Fatalf("plan config %d exceeds the geometry caps: %+v", i, cfg)
			}
		}
		if plan.Sweep {
			if n := uarch.SweepTableBytes(plan.Kind(), plan.Configs); n > maxSweepTableBytes {
				t.Fatalf("sweep plan's tables need %d B, over the budget of %d B", n, maxSweepTableBytes)
			}
		}
	})
}

// withinCaps reports whether every table cfg sizes is within the geometry
// caps, at its defaulted size. cfg is valid, so line sizes are positive.
func withinCaps(cfg uarch.Config) bool {
	ic, dc, p := cfg.ICache.Normalize(), cfg.DCache.Normalize(), cfg.Predictor.Normalize()
	return ic.SizeBytes <= maxCacheBytes && ic.LineBytes <= maxLineBytes && ic.SizeBytes/ic.LineBytes <= maxCacheLines &&
		dc.SizeBytes <= maxCacheBytes && dc.LineBytes <= maxLineBytes && dc.SizeBytes/dc.LineBytes <= maxCacheLines &&
		p.PHTEntries <= maxPHTEntries && p.RASDepth <= maxRASDepth &&
		p.BTBSets <= maxBTBEntries && p.BTBWays <= maxBTBEntries/p.BTBSets &&
		cfg.WindowBlocks <= maxWindowBlocks && cfg.FrontEndDepth <= maxFrontEndDepth && cfg.L2Latency <= maxL2Latency &&
		cfg.FaultSquashPenalty <= maxFaultSquashPenalty
}
