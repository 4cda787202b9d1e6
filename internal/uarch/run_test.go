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
// that every route answers exactly what SimulateMany answers with no shared
// predecode, one built at the first configuration's issue width, or one
// built at another width, and that a canceled context surfaces as Run's
// error. A batch that mixes core geometries is more than one machine, so it
// does not sweep.
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
	// Issue widths 16, 4, 16, 4: each change of width takes another table.
	mixed := sweepGrid(false)
	mixed[1].IssueWidth, mixed[1].NumFUs = 4, 3
	mixed[3].IssueWidth, mixed[3].WindowBlocks = 4, 4
	reason := func(cfgs []Config) string {
		_, r := CanSweep(cfgs)
		return r
	}
	for _, tc := range []struct {
		name string
		cfgs []Config
		want Route
	}{
		{"single config", sweepGrid(false)[1:2], Route{Engine: EngineMany, Reason: "one configuration"}},
		{"icache grid", sweepGrid(false), Route{Engine: EngineSweep}},
		{"trace-cache grid", tcGrid, Route{Engine: EngineMany, Reason: reason(tcGrid)}},
		{"mixed-dcache grid", dcGrid, Route{Engine: EngineMany, Reason: reason(dcGrid)}},
		{"mixed-geometry batch", mixed, Route{Engine: EngineMany, Reason: reason(mixed)}},
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
		iw := tc.cfgs[0].EffectiveIssueWidth()
		for _, p := range []*Predecoded{nil, Predecode(tr.Program(), iw), Predecode(tr.Program(), iw/2)} {
			got, route, err := Run(context.Background(), tr, tc.cfgs, p, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if route != tc.want {
				t.Fatalf("%s: Run routed %+v, RouteFor %+v", tc.name, route, tc.want)
			}
			equalResults(t, tc.name, tc.cfgs, got, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if rs, _, err := Run(ctx, tr, tc.cfgs, nil, nil); !errors.Is(err, context.Canceled) || rs != nil {
			t.Fatalf("%s: canceled Run = %d results, %v; want context.Canceled", tc.name, len(rs), err)
		}
	}
}
