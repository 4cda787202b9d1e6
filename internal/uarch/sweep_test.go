package uarch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
	"bsisa/internal/workload"
)

// sweepGrid is the test-scale Figure 6/7 grid: a perfect reference plus
// three sizes (listed out of order to exercise the level mapping).
func sweepGrid(perfectBP bool) []Config {
	var cfgs []Config
	for _, sz := range []int{0, 2048, 1024, 4096} {
		cfgs = append(cfgs, Config{
			ICache:    cache.Config{SizeBytes: sz, Ways: 4},
			PerfectBP: perfectBP,
		})
	}
	return cfgs
}

// predGrid is a mixed predictor grid over a shared machine: history length,
// PHT size and BTB geometry all vary, over a small real icache so per-class
// pollution differences matter.
func predGrid(icacheBytes int) []Config {
	base := Config{ICache: cache.Config{SizeBytes: icacheBytes, Ways: 4}}
	var cfgs []Config
	for _, p := range []bpred.Config{
		{}, // defaults
		{HistoryBits: 1},
		{HistoryBits: 16, PHTEntries: 1024},
		{HistoryBits: 4, BTBSets: 64, BTBWays: 2},
		{HistoryBits: 12, PHTEntries: 4096, BTBSets: 128, RASDepth: 4},
	} {
		cfg := base
		cfg.Predictor = p
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// crossGrid is a mixed-axis grid: predictor history × icache size, with
// core-geometry axes (issue width, window, FU count, latencies) varied on
// top — the cross-product shape neither old single-axis engine could serve.
func crossGrid() []Config {
	var cfgs []Config
	for _, hist := range []int{2, 8} {
		for _, sz := range []int{0, 1024, 4096} {
			cfg := Config{
				ICache:    cache.Config{SizeBytes: sz, Ways: 4},
				Predictor: bpred.Config{HistoryBits: hist},
			}
			cfgs = append(cfgs, cfg)
		}
	}
	// Core-geometry points: same predictor/icache as cfgs[1], different core.
	narrow := cfgs[1]
	narrow.IssueWidth = 4
	narrow.NumFUs = 3
	cfgs = append(cfgs, narrow)
	small := cfgs[4]
	small.WindowBlocks = 4
	small.WindowOps = 48
	small.FrontEndDepth = 7
	small.L2Latency = 11
	small.FaultSquashPenalty = 9
	cfgs = append(cfgs, small)
	return cfgs
}

// equalResults fails the test unless got and want match field for field.
func equalResults(t *testing.T, label string, cfgs []Config, got, want []*Result) {
	t.Helper()
	for i := range cfgs {
		if *got[i] != *want[i] {
			t.Errorf("%s cfg %d: sweep differs\nsweep:  %+v\nreplay: %+v", label, i, *got[i], *want[i])
		}
	}
}

// TestSweepMatchesSimulateMany checks the timing kernel's two outcome
// sources against each other: over randomized programs for every registered
// backend, the sweep's enrichment tables must drive the kernel to results
// bitwise-identical to live Sims under SimulateMany on the same trace —
// every field, including cache statistics, misprediction counts and stall
// breakdowns — over icache-only, predictor-only and cross-product grids,
// with real and perfect branch prediction, including degenerate one-point
// grids. Most random programs run only a handful of blocks, so a small
// Table-2 workload joins them: thousands of events with real icache misses,
// trap and fault mispredictions, serialization stalls and fused pairs.
func TestSweepMatchesSimulateMany(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(4000); seed < 4000+int64(seeds)+1; seed++ {
		for _, be := range backend.All() {
			kind := be.Kind()
			var prog *isa.Program
			if seed == 4000+int64(seeds) {
				prog = workloadProgram(t, "gcc", 0.002, kind)
			} else {
				prog = policyProgram(t, seed, kind)
			}
			tr, err := emu.Record(prog, emu.Config{MaxOps: 80_000_000})
			if err != nil {
				t.Fatalf("seed %d %s: record: %v", seed, kind, err)
			}
			grids := map[string][]Config{
				"icache":        sweepGrid(false),
				"icachePerfect": sweepGrid(true),
				"pred":          predGrid(1024),
				"predPerfectIC": predGrid(0),
				"cross":         crossGrid(),
				"onePoint":      {crossGrid()[1]},
			}
			for label, cfgs := range grids {
				if ok, reason := CanSweep(cfgs); !ok {
					t.Fatalf("seed %d %s %s: grid should be sweepable: %s", seed, kind, label, reason)
				}
				want, err := SimulateMany(tr, cfgs, 0)
				if err != nil {
					t.Fatalf("seed %d %s %s: simulate many: %v", seed, kind, label, err)
				}
				got, err := Sweep(tr, cfgs)
				if err != nil {
					t.Fatalf("seed %d %s %s: sweep: %v", seed, kind, label, err)
				}
				equalResults(t, fmt.Sprintf("seed %d %s %s", seed, kind, label), cfgs, got, want)
			}
		}
	}
}

// workloadProgram compiles and shapes a Table-2 workload for a backend.
func workloadProgram(t *testing.T, name string, scale float64, kind isa.Kind) *isa.Program {
	t.Helper()
	p, ok := workload.ProfileByName(name, scale)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	src, err := workload.Source(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(src, name, compile.DefaultOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	be, _ := backend.ForKind(kind)
	if _, err := be.Shape(prog, core.Params{}); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSweepMarginals is the axis-composition property: slicing a
// cross-product grid along one axis (fixing the other) and sweeping the
// slice alone must reproduce exactly the rows of the full cross sweep, so
// every single-axis answer is a marginal of the cross grid.
func TestSweepMarginals(t *testing.T) {
	src := testgen.Program(4107)
	prog, err := compile.Compile(src, "marginals", compile.DefaultOptions(isa.BlockStructured))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Enlarge(prog, core.Params{}); err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{MaxOps: 80_000_000})
	if err != nil {
		t.Fatal(err)
	}
	hists := []int{1, 4, 10}
	sizes := []int{0, 1024, 2048, 8192}
	var cross []Config
	for _, h := range hists {
		for _, sz := range sizes {
			cross = append(cross, Config{
				ICache:    cache.Config{SizeBytes: sz, Ways: 4},
				Predictor: bpred.Config{HistoryBits: h},
			})
		}
	}
	full, err := Sweep(tr, cross)
	if err != nil {
		t.Fatal(err)
	}
	// Icache marginals: fix a history, sweep sizes alone.
	for hi, h := range hists {
		slice := cross[hi*len(sizes) : (hi+1)*len(sizes)]
		marginal, err := Sweep(tr, slice)
		if err != nil {
			t.Fatalf("history %d: %v", h, err)
		}
		for si := range slice {
			if *marginal[si] != *full[hi*len(sizes)+si] {
				t.Errorf("history %d size %d: icache marginal differs\nmarginal: %+v\nfull:     %+v",
					h, sizes[si], *marginal[si], *full[hi*len(sizes)+si])
			}
		}
	}
	// Predictor marginals: fix a size, sweep histories alone.
	for si, sz := range sizes {
		var slice []Config
		for hi := range hists {
			slice = append(slice, cross[hi*len(sizes)+si])
		}
		marginal, err := Sweep(tr, slice)
		if err != nil {
			t.Fatalf("size %d: %v", sz, err)
		}
		for hi := range hists {
			if *marginal[hi] != *full[hi*len(sizes)+si] {
				t.Errorf("size %d history %d: predictor marginal differs\nmarginal: %+v\nfull:     %+v",
					sz, hists[hi], *marginal[hi], *full[hi*len(sizes)+si])
			}
		}
	}
}

// TestSweepConfigValidation pins the accept/reject boundary of the unified
// gate: axes may vary freely and cross, while the shared remainder — icache
// geometry, dcache, perfect-BP mode, fetch rivals — must not.
func TestSweepConfigValidation(t *testing.T) {
	ic := func(sz int) Config {
		return Config{ICache: cache.Config{SizeBytes: sz, Ways: 4}}
	}
	withPred := ic(1024)
	withPred.Predictor = bpred.Config{HistoryBits: 4}
	narrow := ic(2048)
	narrow.IssueWidth = 4
	narrow.WindowBlocks = 8
	narrow.NumFUs = 2
	good := [][]Config{
		{ic(1024), ic(2048)},
		{ic(0), ic(1024), ic(4096)},
		{ic(2048), ic(2048)},          // duplicates are fine
		{ic(2048)},                    // degenerate one-point grid
		{ic(0), ic(0)},                // all perfect: no profiler, lanes still run
		{ic(1024), withPred},          // icache × predictor cross
		{ic(1024), narrow, withPred},  // three axes at once
		{predGrid(1024)[0], ic(1024)}, // predictor grid point with plain point
	}
	for i, cfgs := range good {
		if ok, reason := CanSweep(cfgs); !ok {
			t.Errorf("good[%d]: CanSweep = false: %s", i, reason)
		}
	}
	tc := ic(1024)
	tc.TraceCache = TraceCacheConfig{Sets: 64, Ways: 4}
	mb := ic(1024)
	mb.MultiBlock = MultiBlockConfig{Blocks: 4}
	perfect := ic(1024)
	perfect.PerfectBP = true
	dcDiffers := ic(1024)
	dcDiffers.DCache = cache.Config{SizeBytes: 65536, Ways: 8}
	badPHT := ic(1024)
	badPHT.Predictor.PHTEntries = 3000
	badHist := ic(1024)
	badHist.Predictor.HistoryBits = 40
	bad := [][]Config{
		{},
		{ic(1024), tc},       // trace cache observes per-config timing
		{ic(1024), mb},       // multi-block fetch ditto
		{ic(1024), ic(3000)}, // invalid geometry
		{ic(1024), {ICache: cache.Config{SizeBytes: 2048, Ways: 8}}}, // ways differ
		{ic(1024), perfect},   // perfect-BP mode must be shared
		{ic(1024), dcDiffers}, // dcache must be shared
		{ic(1024), badPHT},    // invalid predictor geometry
		{ic(1024), badHist},   // history beyond the BHR
	}
	for i, cfgs := range bad {
		if ok, _ := CanSweep(cfgs); ok {
			t.Errorf("bad[%d]: CanSweep = true", i)
		}
		if _, err := Sweep(nil, cfgs); err == nil {
			t.Errorf("bad[%d]: Sweep accepted", i)
		}
	}
}

// TestSweepRejectedGridFallback checks the contract the routing layers rely
// on: a grid CanSweep rejects still simulates exactly through SimulateMany
// (here: mixed perfect/real branch prediction, which the shared enrichment
// cannot serve).
func TestSweepRejectedGridFallback(t *testing.T) {
	src := testgen.Program(4205)
	prog, err := compile.Compile(src, "fallback", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{MaxOps: 80_000_000})
	if err != nil {
		t.Fatal(err)
	}
	real := Config{ICache: cache.Config{SizeBytes: 1024, Ways: 4}}
	perfect := real
	perfect.PerfectBP = true
	cfgs := []Config{real, perfect}
	if ok, _ := CanSweep(cfgs); ok {
		t.Fatal("mixed perfect/real BP grid should be rejected")
	}
	if _, err := Sweep(tr, cfgs); err == nil {
		t.Fatal("Sweep accepted a rejected grid")
	}
	results, err := SimulateMany(tr, cfgs, 0)
	if err != nil {
		t.Fatalf("fallback path failed: %v", err)
	}
	for i, r := range results {
		if r.Blocks == 0 {
			t.Errorf("config %d: fallback produced an empty result", i)
		}
	}
}

// TestSweepDefaultedGeometry checks that configs written with and without
// explicit cache defaults fuse together (Ways 0 means 4).
func TestSweepDefaultedGeometry(t *testing.T) {
	cfgs := []Config{
		{ICache: cache.Config{SizeBytes: 1024}},
		{ICache: cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64}},
	}
	if ok, reason := CanSweep(cfgs); !ok {
		t.Errorf("defaulted and explicit geometries should normalize together: %s", reason)
	}
}

// TestLaneScratchPool pins the pool's contract: scratch released by one
// engine call is reused by the next, whatever its window size, and reuse
// resets the mutable state a stale lane could leak into fresh results. A
// scratch whose FU ring grew is never handed out again.
func TestLaneScratchPool(t *testing.T) {
	s1 := getLaneScratch(32)
	s1.ring.counts[7] = 9
	s1.ring.base = 1234
	s1.regs[3] = 55
	s1.shadow[5] = 66
	putLaneScratch(s1)
	s2 := getLaneScratch(32)
	if s2 != s1 {
		// Pools may drop objects under GC pressure; retry once via a fresh
		// put/get pair before declaring the pool broken.
		putLaneScratch(s2)
		s2 = getLaneScratch(32)
		if s2 != s1 && s2 == nil {
			t.Fatal("pool returned nil")
		}
	}
	if s2.ring.base != 0 || s2.ring.counts[7] != 0 || s2.regs[3] != 0 || s2.shadow[5] != 0 {
		t.Fatalf("pooled scratch not reset: base=%d counts[7]=%d regs[3]=%d shadow[5]=%d",
			s2.ring.base, s2.ring.counts[7], s2.regs[3], s2.shadow[5])
	}
	if len(s2.win) != 33 {
		t.Fatalf("pooled scratch window length %d, want 33", len(s2.win))
	}
	// Another window size takes scratch from the same pool, with its own
	// window length, shorter or longer.
	for _, wb := range []int{8, 64, 32} {
		putLaneScratch(s2)
		s2 = getLaneScratch(wb)
		if len(s2.win) != wb+1 {
			t.Fatalf("window size %d: scratch window length %d, want %d", wb, len(s2.win), wb+1)
		}
	}
	// A grown ring goes back to no one.
	s2.ring.grow(4 * laneRingSlots)
	putLaneScratch(s2)
	for i := 0; i < 8; i++ {
		s := getLaneScratch(32)
		if s == s2 || len(s.ring.counts) != laneRingSlots {
			t.Fatalf("get %d handed out a grown ring of %d slots", i, len(s.ring.counts))
		}
		putLaneScratch(s)
	}
}

// historyICacheGrid is the serve-warm shape: four branch-history lengths
// crossed with four icache sizes, perfect included. Under perfect branch
// prediction the history axis changes nothing.
func historyICacheGrid(perfectBP bool) []Config {
	var cfgs []Config
	for _, hist := range []int{2, 4, 8, 12} {
		for _, sz := range []int{0, 1024, 2048, 4096} {
			cfgs = append(cfgs, Config{
				ICache:    cache.Config{SizeBytes: sz, Ways: 4},
				Predictor: bpred.Config{HistoryBits: hist},
				PerfectBP: perfectBP,
			})
		}
	}
	return cfgs
}

// TestSweepFolding checks lane folding on a workload long enough to fold:
// lanes of one predictor class that differ only in icache size follow a
// sibling while their timing frontiers coincide and split off when their
// icache outcomes differ. Every grid must still match SimulateMany field for
// field, the icache grids must both fold and split so the materialize path runs, and
// no lane may ever follow a lane whose configuration differs beyond the
// icache size — another core geometry, or another predictor where the
// backend predicts (without a predictor, or under perfect prediction, the
// class ignores the predictor tables, and so does this check). A sweep
// canceled while lanes follow returns the context's error.
func TestSweepFolding(t *testing.T) {
	// At this scale li runs about 9,000 events: enough to fold, and more than
	// two context-check chunks for the cancellation case.
	const scale = 0.01
	grids := []struct {
		name     string
		cfgs     []Config
		mustFold bool
	}{
		{"icache", sweepGrid(false), true},
		{"history×icache", historyICacheGrid(false), true},
		{"history×icache perfectBP", historyICacheGrid(true), true},
		{"cross", crossGrid(), false},
	}
	for _, be := range backend.All() {
		kind := be.Kind()
		noPredictor := be.Policy().Predictor == backend.PredNone
		prog := workloadProgram(t, "li", scale, kind)
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", kind, err)
		}
		for _, g := range grids {
			want, err := SimulateMany(tr, g.cfgs, 0)
			if err != nil {
				t.Fatalf("%s %s: simulate many: %v", kind, g.name, err)
			}
			norm := normalizeSweepConfigs(g.cfgs)
			label := fmt.Sprintf("%s %s", kind, g.name)
			var st foldStats
			got, err := sweep(context.Background(), tr, g.cfgs, nil, &st)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			equalResults(t, label, g.cfgs, got, want)
			if g.mustFold && (st.folds == 0 || st.splits == 0) {
				t.Errorf("%s: %d folds and %d splits, want both", label, st.folds, st.splits)
			}
			for _, e := range st.edges {
				f, l := norm[e[0]], norm[e[1]]
				f.ICache.SizeBytes, l.ICache.SizeBytes = 0, 0
				if noPredictor || f.PerfectBP {
					f.Predictor, l.Predictor = bpred.Config{}, bpred.Config{}
				}
				if f != l {
					t.Errorf("%s: config %d followed config %d, which differs beyond the icache size", label, e[0], e[1])
				}
			}
			t.Logf("%s: %d events × %d lanes, %d folds, %d splits, %.1f%% of lane-events followed",
				label, tr.NumEvents(), len(g.cfgs), st.folds, st.splits,
				100*float64(st.followed)/float64(tr.NumEvents()*len(g.cfgs)))
		}

		// Cancel at the lane walk's last context check — the checks run in a
		// fixed order, so counting a full run's checks finds it. Lanes must
		// already be following by then.
		cfgs := sweepGrid(false)
		count := newCountdownCtx(1 << 40)
		if _, err := sweep(count, tr, cfgs, nil, nil); err != nil {
			t.Fatalf("%s: counting run: %v", kind, err)
		}
		checks := 1<<40 - count.budget.Load()
		var st foldStats
		baseline := runtime.NumGoroutine()
		got, err := sweep(newCountdownCtx(checks-1), tr, cfgs, nil, &st)
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("%s: canceled mid-fold: results %v, err %v; want context.Canceled", kind, got, err)
		}
		if st.followed == 0 {
			t.Fatalf("%s: no lane followed before the cancel fired", kind)
		}
		checkNoGoroutineLeak(t, baseline)
	}
}

// TestSweepAllocLedger is the sweep's allocation ledger: the bytes one Sweep
// call allocates must not grow with the trace. It sweeps the serve-warm
// 4×4 history×icache grid over li at two scales whose traces are at least
// 4× apart in events, and lets the longer trace allocate at most 25% more
// per call than the shorter one: the programs differ a little between
// scales (and so do their predecoded tables and predictor warm-up), while
// outcome tables sized by the trace would grow with the events instead.
// Each side is measured as the runtime.MemStats.TotalAlloc delta over
// several calls after a warm-up call has filled the lane-scratch pool.
func TestSweepAllocLedger(t *testing.T) {
	cfgs := historyICacheGrid(false)
	perCall := func(scale float64) (events int, bytes uint64) {
		t.Helper()
		tr, err := emu.Record(workloadProgram(t, "li", scale, isa.Conventional), emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Sweep(tr, cfgs); err != nil {
			t.Fatal(err)
		}
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if _, err := Sweep(tr, cfgs); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return tr.NumEvents(), (after.TotalAlloc - before.TotalAlloc) / calls
	}
	shortEv, short := perCall(0.01)
	longEv, long := perCall(0.05)
	t.Logf("li: %d events %d B/call, %d events %d B/call", shortEv, short, longEv, long)
	if longEv < 4*shortEv {
		t.Fatalf("traces of %d and %d events are less than 4× apart", shortEv, longEv)
	}
	if long > short+short/4 {
		t.Errorf("a sweep of %d events allocates %d B, over 125%% of the %d B at %d events: allocation grows with the trace",
			longEv, long, short, shortEv)
	}
}

// TestSweepTableBytes requires SweepTableBytes, by which the service
// budgets a sweep, to bound what a sweep allocates when the grid sizes most
// of it: eight predictor classes with 2¹⁸-entry PHTs, each profiled over
// icache {1, 64} KiB, on li with a prebuilt predecode table. The estimate
// may run over the allocation, since it counts a misprediction per event,
// full profiler stacks and a filled BTB, but by no more than half.
func TestSweepTableBytes(t *testing.T) {
	var cfgs []Config
	for hist := 1; hist <= 8; hist++ {
		for _, sz := range []int{1 << 10, 64 << 10} {
			cfgs = append(cfgs, Config{
				ICache:    cache.Config{SizeBytes: sz},
				Predictor: bpred.Config{HistoryBits: hist, PHTEntries: 1 << 18},
			})
		}
	}
	for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
		prog := workloadProgram(t, "li", 0.01, kind)
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		pre := Predecode(prog, 0)
		// A warm-up call fills the lane-scratch pool, which the estimate
		// counts but a steady-state call no longer allocates.
		if _, err := SweepPredecoded(context.Background(), tr, cfgs, 0, pre); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SweepPredecoded(context.Background(), tr, cfgs, 0, pre); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc, est := int64(after.TotalAlloc-before.TotalAlloc), SweepTableBytes(kind, cfgs)
		t.Logf("%s: allocated %d B, estimated %d B", kind, alloc, est)
		if alloc > est || est > alloc+alloc/2 {
			t.Errorf("%s: a sweep allocated %d B against an estimate of %d B", kind, alloc, est)
		}
	}
}
