package uarch

import (
	"context"
	"errors"
	"testing"

	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// TestRun pins the engine gate: which route each batch shape takes and why,
// that every route answers exactly what SimulateMany answers at any worker
// count with or without a shared predecode, and that a canceled context
// surfaces as Run's error.
func TestRun(t *testing.T) {
	tr, err := emu.Record(workloadProgram(t, "li", 0.01, isa.BlockStructured), emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tcGrid := sweepGrid(false)
	for i := range tcGrid {
		tcGrid[i].TraceCache = TraceCacheConfig{Sets: 64, Ways: 4}
	}
	dcGrid := sweepGrid(false)
	dcGrid[1].DCache = cache.Config{SizeBytes: 8192, Ways: 2}
	reason := func(cfgs []Config) string {
		_, r := CanSweep(cfgs)
		return r
	}
	for _, tc := range []struct {
		name string
		cfgs []Config
		want Route
	}{
		{"single config", sweepGrid(false)[1:2], Route{EngineMany, "one configuration"}},
		{"icache grid", sweepGrid(false), Route{EngineSweep, ""}},
		{"trace-cache grid", tcGrid, Route{EngineMany, reason(tcGrid)}},
		{"mixed-dcache grid", dcGrid, Route{EngineMany, reason(dcGrid)}},
	} {
		if got := RouteFor(tc.cfgs); got != tc.want {
			t.Fatalf("%s: RouteFor = %+v, want %+v", tc.name, got, tc.want)
		}
		if tc.want.Engine == EngineMany && tc.want.Reason == "" {
			t.Fatalf("%s: a batch that does not sweep must say why", tc.name)
		}
		want, err := SimulateMany(tr, tc.cfgs, 1)
		if err != nil {
			t.Fatal(err)
		}
		pre := Predecode(tr.Program(), tc.cfgs[0].EffectiveIssueWidth())
		for _, workers := range []int{1, 2} {
			for _, p := range []*Predecoded{nil, pre} {
				got, route, err := Run(context.Background(), tr, tc.cfgs, RunOptions{Workers: workers, Predecoded: p})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
				}
				if route != tc.want {
					t.Fatalf("%s: Run routed %+v, RouteFor %+v", tc.name, route, tc.want)
				}
				equalResults(t, tc.name, tc.cfgs, got, want)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if rs, _, err := Run(ctx, tr, tc.cfgs, RunOptions{Workers: 2}); !errors.Is(err, context.Canceled) || rs != nil {
			t.Fatalf("%s: canceled Run = %d results, %v; want context.Canceled", tc.name, len(rs), err)
		}
	}
}
