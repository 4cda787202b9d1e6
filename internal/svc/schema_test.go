package svc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bsisa/internal/uarch"
)

func TestDecodeRequestStrict(t *testing.T) {
	v := fmt.Sprintf(`{"version":%d`, SchemaVersion)
	cases := []struct {
		name string
		body string
		want error // nil means the decode must succeed
	}{
		{"minimal sim", v + `,"program":{"seed":7,"isa":"conv"},"config":{}}`, nil},
		{"minimal sweep", v + `,"program":{"workload":"compress","isa":"bsa"},"sweep":{"icache_sizes":[0,8192]}}`, nil},
		{"unknown top-level field", v + `,"prorgam":{}}`, ErrBadRequest},
		{"unknown nested field", v + `,"program":{"isa":"conv","sede":7}}`, ErrBadRequest},
		{"trailing data", v + `,"program":{"seed":7,"isa":"conv"},"config":{}} {"x":1}`, ErrBadRequest},
		{"missing version", `{"program":{"seed":7,"isa":"conv"},"config":{}}`, ErrBadVersion},
		{"future version", `{"version":99,"program":{"seed":7,"isa":"conv"},"config":{}}`, ErrBadVersion},
		// Schema v2 dropped pred_sweep and segments: a v1 body is refused by
		// version, and a v2 body carrying either field by strict decoding.
		{"v1 body", `{"version":1,"program":{"seed":7,"isa":"conv"},"config":{}}`, ErrBadVersion},
		{"segments field", v + `,"program":{"seed":7,"isa":"conv"},"config":{},"segments":4}`, ErrBadRequest},
		{"pred_sweep field", v + `,"program":{"seed":7,"isa":"conv"},"pred_sweep":{"history_bits":[2,8]}}`, ErrBadRequest},
		{"not json", `hello`, ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if tc.want == nil {
				if err != nil {
					t.Fatalf("DecodeRequest: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeRequest = %v, want errors.Is(err, %v)", err, tc.want)
			}
			// Every decode failure must also match the root sentinel.
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("DecodeRequest = %v, want errors.Is(err, ErrBadRequest)", err)
			}
		})
	}
}

func seedReq(mutate func(*SimRequest)) *SimRequest {
	seed := int64(7)
	req := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	}
	if mutate != nil {
		mutate(req)
	}
	return req
}

func TestBuildConfigTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SimRequest)
		want   error
	}{
		{"ok", nil, nil},
		{"wrong version", func(r *SimRequest) { r.Version = SchemaVersion + 1 }, ErrBadVersion},
		{"no program source", func(r *SimRequest) { r.Program.Seed = nil }, ErrBadProgram},
		{"two program sources", func(r *SimRequest) { r.Program.Workload = "compress" }, ErrBadProgram},
		{"unknown workload", func(r *SimRequest) {
			r.Program.Seed = nil
			r.Program.Workload = "specfp"
		}, ErrBadProgram},
		{"unknown isa", func(r *SimRequest) { r.Program.ISA = "vliw" }, ErrBadProgram},
		{"scale without workload", func(r *SimRequest) { r.Program.Scale = 0.5 }, ErrBadProgram},
		{"enlarge on conventional", func(r *SimRequest) { r.Program.Enlarge = &EnlargeSpec{MaxOps: 100} }, ErrBadProgram},
		{"negative emu budget", func(r *SimRequest) { r.EmuMaxOps = -1 }, ErrBadRequest},
		{"negative timeout", func(r *SimRequest) { r.TimeoutMs = -5 }, ErrBadRequest},
		{"neither config nor sweep", func(r *SimRequest) { r.Config = nil }, ErrBadRequest},
		{"both config and sweep", func(r *SimRequest) {
			r.Sweep = &SweepSpec{ICacheSizes: []int{0}}
		}, ErrBadRequest},
		{"bad geometry", func(r *SimRequest) {
			r.Config = &ConfigSpec{ICache: &CacheSpec{SizeBytes: 3000, Ways: 4}}
		}, ErrBadGeometry},
		{"negative issue width", func(r *SimRequest) {
			r.Config = &ConfigSpec{IssueWidth: -2}
		}, ErrBadGeometry},
		{"empty sweep", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{}
		}, ErrBadSweep},
		{"negative sweep size", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{ICacheSizes: []int{-1}}
		}, ErrBadSweep},
		{"bad sweep geometry", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{ICacheSizes: []int{3000}}
		}, ErrBadSweep},
		{"multi-axis sweep over perfect prediction", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{HistoryBits: []int{2, 4}, Base: &ConfigSpec{PerfectBP: true}}
		}, ErrBadSweep},
		{"sweep grid over the cap", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{HistoryBits: make([]int, 32), ICacheSizes: make([]int, 33)}
		}, ErrBadSweep},
		{"multi-axis sweep negative history", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{HistoryBits: []int{-2}, ICacheSizes: []int{8192}}
		}, ErrBadSweep},
		{"both config and pred sweep", func(r *SimRequest) {
			r.Sweep = &SweepSpec{HistoryBits: []int{2, 4}}
		}, ErrBadRequest},
		{"negative pred sweep axis", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{HistoryBits: []int{-2}}
		}, ErrBadSweep},
		{"pred sweep history beyond BHR", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{HistoryBits: []int{40}}
		}, ErrBadSweep},
		{"pred sweep non-power-of-two PHT", func(r *SimRequest) {
			r.Config = nil
			r.Sweep = &SweepSpec{PHTEntries: []int{3000}}
		}, ErrBadSweep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildConfig(seedReq(tc.mutate))
			if tc.want == nil {
				if err != nil {
					t.Fatalf("BuildConfig: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("BuildConfig = %v, want errors.Is(err, %v)", err, tc.want)
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("BuildConfig = %v, want errors.Is(err, ErrBadRequest)", err)
			}
		})
	}
}

func TestBuildConfigNormalization(t *testing.T) {
	// ISA aliases and workload scale defaults normalize, so equivalent wire
	// forms share one artifact cache key.
	a, err := BuildConfig(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildConfig(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", Scale: 1.0, ISA: "conventional"},
		Config:  &ConfigSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Program != b.Program {
		t.Fatalf("normalized programs differ: %+v vs %+v", a.Program, b.Program)
	}
	if programKey(a.Program) != programKey(b.Program) {
		t.Fatal("equivalent programs map to different artifact keys")
	}

	// Sweep plans inherit the bsbench/bsim base geometry.
	p, err := BuildConfig(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", ISA: "bsa"},
		Sweep:   &SweepSpec{ICacheSizes: []int{0, 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sweep || len(p.Configs) != 2 {
		t.Fatalf("sweep plan malformed: %+v", p)
	}
	if p.Configs[1].ICache.SizeBytes != 8192 || p.Configs[1].ICache.Ways != 4 {
		t.Fatalf("sweep base geometry not applied: %+v", p.Configs[1].ICache)
	}
	if p.Program.ISA != isaBlockStructured {
		t.Fatalf("ISA alias not normalized: %q", p.Program.ISA)
	}
}

func TestBuildConfigMultiAxisSweep(t *testing.T) {
	// A SweepSpec with predictor axes builds the full cross product in
	// axis-major order — history outermost, icache size innermost — and
	// echoes each point's predictor so responses stay self-describing.
	p, err := BuildConfig(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", ISA: "bsa"},
		Sweep: &SweepSpec{
			ICacheSizes: []int{4096, 8192},
			HistoryBits: []int{4, 8},
			PHTEntries:  []int{1024},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sweep {
		t.Fatalf("plan flags wrong: %+v", p)
	}
	if len(p.Configs) != 4 || len(p.Predictors) != 4 || len(p.ICacheBytes) != 4 {
		t.Fatalf("cross product has %d configs, %d echoes, %d sizes; want 4 each",
			len(p.Configs), len(p.Predictors), len(p.ICacheBytes))
	}
	wantPoints := []struct{ hist, pht, size int }{
		{4, 1024, 4096}, {4, 1024, 8192}, {8, 1024, 4096}, {8, 1024, 8192},
	}
	for i, want := range wantPoints {
		cfg := p.Configs[i]
		if cfg.Predictor.HistoryBits != want.hist || cfg.Predictor.PHTEntries != want.pht ||
			cfg.ICache.SizeBytes != want.size {
			t.Errorf("point %d: hist=%d pht=%d size=%d, want %+v",
				i, cfg.Predictor.HistoryBits, cfg.Predictor.PHTEntries, cfg.ICache.SizeBytes, want)
		}
		if p.ICacheBytes[i] != want.size {
			t.Errorf("icache echo %d: %d, want %d", i, p.ICacheBytes[i], want.size)
		}
		echo := p.Predictors[i]
		if echo == nil || echo.HistoryBits != want.hist || echo.PHTEntries != want.pht {
			t.Errorf("predictor echo %d: %+v, want %+v", i, echo, want)
		}
	}
	if ok, reason := uarch.CanSweep(p.Configs); !ok {
		t.Fatalf("multi-axis plan is not sweepable by the unified engine: %s", reason)
	}

	// An icache-only SweepSpec keeps Predictors nil, so existing clients see
	// the same response shape as before the predictor axes existed.
	p2, err := BuildConfig(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", ISA: "bsa"},
		Sweep:   &SweepSpec{ICacheSizes: []int{0, 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Predictors != nil {
		t.Fatalf("icache-only sweep grew predictor echoes: %+v", p2.Predictors)
	}

	// A predictor-only SweepSpec pins the icache at the base geometry.
	p3, err := BuildConfig(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", ISA: "bsa"},
		Sweep: &SweepSpec{
			HistoryBits: []int{2, 4},
			Base:        &ConfigSpec{ICache: &CacheSpec{SizeBytes: 8192, Ways: 4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p3.Configs) != 2 || len(p3.Predictors) != 2 {
		t.Fatalf("predictor-only sweep has %d configs, %d echoes; want 2 each", len(p3.Configs), len(p3.Predictors))
	}
	for i, cfg := range p3.Configs {
		if cfg.ICache.SizeBytes != 8192 || p3.ICacheBytes[i] != 8192 {
			t.Errorf("point %d lost the base icache: %+v (echo %d)", i, cfg.ICache, p3.ICacheBytes[i])
		}
	}
}

// TestBuildConfigSweepCap pins the grid-size bound: the axis product is
// sized before anything expands, so a tiny body naming a 64×64×64×64 grid
// (16.7M points) is a bad_sweep that allocates almost nothing, while a grid
// exactly at the cap still builds.
func TestBuildConfigSweepCap(t *testing.T) {
	axis := func(n, first int, next func(int) int) []int {
		vals := make([]int, n)
		for i, v := 0, first; i < n; i, v = i+1, next(v) {
			vals[i] = v
		}
		return vals
	}
	inc := func(v int) int { return v + 1 }
	dbl := func(v int) int { return v * 2 }
	huge := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "li", ISA: "conv"},
		Sweep: &SweepSpec{
			HistoryBits: axis(64, 1, inc),
			PHTEntries:  axis(64, 1, inc),
			BTBSets:     axis(64, 1, inc),
			ICacheSizes: axis(64, 1, inc),
		},
	}
	var plan *Plan
	var err error
	allocs := testing.AllocsPerRun(10, func() { plan, err = BuildConfig(huge) })
	if !errors.Is(err, ErrBadSweep) || !errors.Is(err, ErrBadRequest) || plan != nil {
		t.Fatalf("64^4 grid: plan %v, err %v; want a bad_sweep rejection", plan, err)
	}
	if allocs > 20 {
		t.Fatalf("rejecting a 64^4 grid allocated %.0f objects; the grid must not expand", allocs)
	}

	atCap := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "li", ISA: "conv"},
		Sweep: &SweepSpec{
			HistoryBits: axis(8, 1, inc),
			PHTEntries:  axis(4, 512, dbl),
			BTBSets:     axis(4, 64, dbl),
			ICacheSizes: append([]int{0}, axis(7, 1024, dbl)...),
		},
	}
	plan, err = BuildConfig(atCap)
	if err != nil {
		t.Fatalf("grid at the cap: %v", err)
	}
	if len(plan.Configs) != maxSweepConfigs {
		t.Fatalf("grid at the cap built %d configs, want %d", len(plan.Configs), maxSweepConfigs)
	}
	atCap.Sweep.ICacheSizes = append(atCap.Sweep.ICacheSizes, 131072)
	if _, err := BuildConfig(atCap); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("grid one icache size over the cap: err %v, want bad_sweep", err)
	}
}
