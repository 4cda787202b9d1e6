package uarch

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
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

// crossGrid is the cross of both swept axes, predictor history × icache
// size, on the machine core describes (its icache and predictor are
// overwritten).
func crossGrid(core Config) []Config {
	var cfgs []Config
	for _, hist := range []int{2, 8} {
		for _, sz := range []int{0, 1024, 4096} {
			cfg := core
			cfg.ICache = cache.Config{SizeBytes: sz, Ways: 4}
			cfg.Predictor = bpred.Config{HistoryBits: hist}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// crossGrids is crossGrid on three machines — the paper's, a narrow core,
// and a small window behind a deep front end with slow recovery — so that
// every kernel knob runs on the sweep route.
func crossGrids() map[string][]Config {
	return map[string][]Config{
		"cross":        crossGrid(Config{}),
		"cross narrow": crossGrid(Config{IssueWidth: 4, NumFUs: 3}),
		"cross small": crossGrid(Config{WindowBlocks: 4, WindowOps: 48, FrontEndDepth: 7,
			L2Latency: 11, FaultSquashPenalty: 9}),
	}
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
// backend, the sweep's outcome streams must drive the kernel to results
// bitwise-identical to live Sims under SimulateMany on the same trace —
// every field, including cache statistics, misprediction counts and stall
// breakdowns — over icache-only, predictor-only and history × icache grids,
// the last on the paper's machine and on two others, with real and perfect
// branch prediction, including degenerate one-point grids. Most random programs run only a handful of blocks, so a small
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
			grids := crossGrids()
			maps.Copy(grids, map[string][]Config{
				"icache":        sweepGrid(false),
				"icachePerfect": sweepGrid(true),
				"pred":          predGrid(1024),
				"predPerfectIC": predGrid(0),
				"onePoint":      {grids["cross narrow"][1]},
			})
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
	if _, err := backend.For(kind).Shape(prog, core.Params{}); err != nil {
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

// TestSweepConfigValidation pins the accept/reject boundary of the gate:
// the icache size and the predictor tables may vary freely and cross, while
// the machine — core geometry and latencies, icache ways and line size,
// dcache, perfect-BP mode, fetch rivals — must be shared.
func TestSweepConfigValidation(t *testing.T) {
	ic := func(sz int) Config {
		return Config{ICache: cache.Config{SizeBytes: sz, Ways: 4}}
	}
	withPred := ic(1024)
	withPred.Predictor = bpred.Config{HistoryBits: 4}
	narrow := func(cfg Config) Config {
		cfg.IssueWidth, cfg.WindowBlocks, cfg.NumFUs = 4, 8, 2
		return cfg
	}
	good := [][]Config{
		{ic(1024), ic(2048)},
		{ic(0), ic(1024), ic(4096)},
		{ic(2048), ic(2048)},          // duplicates are fine
		{ic(2048)},                    // degenerate one-point grid
		{ic(0), ic(0)},                // all perfect: no profiler, lanes still run
		{ic(1024), withPred},          // icache × predictor cross
		{predGrid(1024)[0], ic(1024)}, // predictor grid point with plain point
		{narrow(ic(1024)), narrow(ic(2048)), narrow(withPred)},              // the cross on another machine
		{{IssueWidth: 16, ICache: cache.Config{SizeBytes: 1024}}, ic(2048)}, // defaults spelled out
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
		{ic(1024), perfect},                    // perfect-BP mode must be shared
		{ic(1024), dcDiffers},                  // dcache must be shared
		{ic(1024), badPHT},                     // invalid predictor geometry
		{ic(1024), badHist},                    // history beyond the BHR
		{ic(1024), narrow(ic(2048)), withPred}, // core geometry must be shared
	}
	// Each core knob alone takes a grid off the sweep.
	for _, knob := range []func(*Config){
		func(c *Config) { c.IssueWidth = 4 },
		func(c *Config) { c.WindowBlocks = 8 },
		func(c *Config) { c.WindowOps = 48 },
		func(c *Config) { c.NumFUs = 3 },
		func(c *Config) { c.FrontEndDepth = 7 },
		func(c *Config) { c.L2Latency = 11 },
		func(c *Config) { c.FaultSquashPenalty = 9 },
	} {
		other := ic(2048)
		knob(&other)
		bad = append(bad, []Config{ic(1024), other})
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
// icache outcomes differ. Every grid — among them history × icache on
// three machines — must still match SimulateMany field for field and must
// both fold and split, so the materialize path runs. No lane may ever
// follow a lane whose configuration differs beyond the icache size: another
// predictor where the backend predicts (without a predictor, or under
// perfect prediction, the class ignores the predictor tables, and so does
// this check). A sweep canceled while lanes follow returns the context's
// error.
func TestSweepFolding(t *testing.T) {
	// At this scale li runs about 9,000 events: enough to fold, and more than
	// two context-check chunks for the cancellation case.
	const scale = 0.01
	grids := crossGrids()
	maps.Copy(grids, map[string][]Config{
		"icache":                   sweepGrid(false),
		"history×icache":           historyICacheGrid(false),
		"history×icache perfectBP": historyICacheGrid(true),
	})
	for _, be := range backend.All() {
		kind := be.Kind()
		noPredictor := be.Policy().Predictor == backend.PredNone
		prog := workloadProgram(t, "li", scale, kind)
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", kind, err)
		}
		for _, name := range slices.Sorted(maps.Keys(grids)) {
			cfgs := grids[name]
			want, err := SimulateMany(tr, cfgs, 0)
			if err != nil {
				t.Fatalf("%s %s: simulate many: %v", kind, name, err)
			}
			norm := normalizeSweepConfigs(cfgs)
			label := fmt.Sprintf("%s %s", kind, name)
			var st foldStats
			got, _, err := sweep(context.Background(), tr, cfgs, nil, nil, &st)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			equalResults(t, label, cfgs, got, want)
			if st.folds == 0 || st.splits == 0 {
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
				label, tr.NumEvents(), len(cfgs), st.folds, st.splits,
				100*float64(st.followed)/float64(tr.NumEvents()*len(cfgs)))
		}

		// Cancel at the lane walk's last context check — the checks run in a
		// fixed order, so counting a full run's checks finds it. Lanes must
		// already be following by then.
		cfgs := sweepGrid(false)
		count := newCountdownCtx(1 << 40)
		if _, _, err := sweep(count, tr, cfgs, nil, nil, nil); err != nil {
			t.Fatalf("%s: counting run: %v", kind, err)
		}
		checks := 1<<40 - count.budget.Load()
		var st foldStats
		baseline := runtime.NumGoroutine()
		got, _, err := sweep(newCountdownCtx(checks-1), tr, cfgs, nil, nil, &st)
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
// call allocates must not grow with the trace, whether the enrichment writes
// its outcome streams or the lanes walk an outcome memo's. It sweeps the
// serve-warm 4×4 history×icache grid over li at two scales whose traces are
// at least 4× apart in events, and lets the longer trace allocate at most
// 25% more per call than the shorter one: the programs differ a little
// between scales (and so do their predecoded tables and predictor warm-up),
// while outcome tables sized by the trace would grow with the events
// instead. A sweep served from the memo builds no predictor or profiler, so
// it allocates at least their table bytes less than a memo-less sweep. Each
// side is measured as the runtime.MemStats.TotalAlloc delta over several
// calls after a warm-up call has filled the lane-scratch pool (and the
// memo).
func TestSweepAllocLedger(t *testing.T) {
	cfgs := historyICacheGrid(false)
	perCall := func(tr *emu.Trace, memo *OutcomeMemo) uint64 {
		t.Helper()
		if _, _, err := sweep(context.Background(), tr, cfgs, nil, memo, nil); err != nil {
			t.Fatal(err)
		}
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if _, use, err := sweep(context.Background(), tr, cfgs, nil, memo, nil); err != nil || memo != nil && use != MemoServed {
				t.Fatalf("memo %s, %v", use, err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	// What building the grid's Bank and profilers allocates.
	norm := normalizeSweepConfigs(cfgs)
	_, classCfgs := predictorClasses(norm, backend.PredTwoLevel)
	minSize, maxSize := icacheRange(norm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bank := bpred.NewBank(false, classCfgs)
	for range classCfgs {
		if _, err := cache.NewStackDist(norm[0].ICache, minSize, maxSize); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(bank)
	tables := after.TotalAlloc - before.TotalAlloc
	var events [2]int
	var plain, served [2]uint64
	for i, scale := range []float64{0.01, 0.05} {
		tr, err := emu.Record(workloadProgram(t, "li", scale, isa.Conventional), emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		events[i], plain[i], served[i] = tr.NumEvents(), perCall(tr, nil), perCall(tr, NewOutcomeMemo(tr))
		t.Logf("li: %d events, %d B/call, %d B/call served from the memo", events[i], plain[i], served[i])
		if served[i]+tables > plain[i] {
			t.Errorf("a sweep of %d events served from the memo allocates %d B, against %d B without it: less than the %d B of its predictor and profiler tables apart",
				events[i], served[i], plain[i], tables)
		}
	}
	if events[1] < 4*events[0] {
		t.Fatalf("traces of %d and %d events are less than 4× apart", events[0], events[1])
	}
	for _, side := range []struct {
		name string
		b    [2]uint64
	}{{"without a memo", plain}, {"served from the memo", served}} {
		if short, long := side.b[0], side.b[1]; long > short+short/4 {
			t.Errorf("%s, a sweep of %d events allocates %d B, over 125%% of the %d B at %d events: allocation grows with the trace",
				side.name, events[1], long, short, events[0])
		}
	}
}

// TestSweepOnePredictorOneClass sweeps a conventional grid that names one
// predictor three ways — the defaults, the default history spelled out,
// and the default history and PHT spelled out — as one predictor class,
// with answers identical to SimulateMany. SweepTableBytes charges the grid
// as it charges the same predictor written the same way three times.
func TestSweepOnePredictorOneClass(t *testing.T) {
	var cfgs, same []Config
	for _, p := range []bpred.Config{{}, {HistoryBits: 8}, {HistoryBits: 8, PHTEntries: 32768}} {
		for _, sz := range []int{0, 1024, 4096} {
			cfgs = append(cfgs, Config{ICache: cache.Config{SizeBytes: sz, Ways: 4}, Predictor: p})
			same = append(same, Config{ICache: cache.Config{SizeBytes: sz, Ways: 4}})
		}
	}
	if _, classCfgs := predictorClasses(normalizeSweepConfigs(cfgs), backend.PredTwoLevel); len(classCfgs) != 1 {
		t.Fatalf("one predictor written three ways makes %d classes, want 1", len(classCfgs))
	}
	if got, want := SweepTableBytes(isa.Conventional, cfgs), SweepTableBytes(isa.Conventional, same); got != want {
		t.Errorf("SweepTableBytes charges %d B, against %d B for one spelling", got, want)
	}
	tr, err := emu.Record(workloadProgram(t, "li", 0.01, isa.Conventional), emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateMany(tr, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "one predictor", cfgs, got, want)
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
