// Package bsisa's root benchmarks regenerate each of the paper's tables and
// figures under `go test -bench` (one target per table/figure, per
// DESIGN.md's experiment index), plus component microbenchmarks for the
// compiler, enlarger, emulator and timing model. Benchmarks run the harness
// at a reduced scale so `go test -bench=. -benchmem` stays tractable; the
// bsbench command reproduces the full-scale numbers.
package main

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bsisa/internal/bpred"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/harness"
	"bsisa/internal/isa"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

const benchScale = 0.05

var (
	benchOnce sync.Once
	benchH    *harness.Harness
	benchErr  error
)

func benchHarness(b *testing.B) *harness.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchH, benchErr = harness.New(harness.Options{Scale: benchScale})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

// BenchmarkTable1 regenerates the instruction class/latency table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := harness.Table1(); len(tbl.Rows) != 8 {
			b.Fatal("table 1 wrong shape")
		}
	}
}

// BenchmarkTable2 regenerates the benchmark inventory with measured dynamic
// operation counts.
func BenchmarkTable2(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFigure(b *testing.B, f func(*harness.Harness) error) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Memoized results would make iterations after the first free; clear
		// them so ns/op reflects real timing simulation. Recorded traces are
		// config-independent inputs and survive the clear, so iterations
		// measure the replay path the harness actually uses.
		h.ClearResults()
		if err := f(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the headline cycles comparison (real
// predictor, large icache).
func BenchmarkFigure3(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.Figure3(); return err })
}

// BenchmarkFigure4 regenerates the perfect-branch-prediction comparison.
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.Figure4(); return err })
}

// BenchmarkFigure5 regenerates the retired-block-size comparison.
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.Figure5(); return err })
}

// BenchmarkFigure6 regenerates the conventional-ISA icache sensitivity sweep.
func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.Figure6(); return err })
}

// BenchmarkFigure7 regenerates the block-structured icache sensitivity sweep.
func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.Figure7(); return err })
}

// BenchmarkAblateBlockSize sweeps the atomic block size cap (ablation A1).
func BenchmarkAblateBlockSize(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.AblateBlockSize(); return err })
}

// BenchmarkAblateFaults sweeps the per-block fault budget (ablation A2).
func BenchmarkAblateFaults(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.AblateFaults(); return err })
}

// BenchmarkAblateSuperblock compares enlargement against superblock
// formation (ablation A3).
func BenchmarkAblateSuperblock(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.AblateSuperblock(); return err })
}

// BenchmarkAblateHistory sweeps predictor history length (ablation A4).
func BenchmarkAblateHistory(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.AblateHistory(); return err })
}

// BenchmarkAblateMinBias evaluates the §6 bias-threshold heuristic
// (ablation A5).
func BenchmarkAblateMinBias(b *testing.B) {
	benchFigure(b, func(h *harness.Harness) error { _, err := h.AblateMinBias(); return err })
}

// ---- component microbenchmarks ----

// benchSource generates a benchmark's MiniC source at benchScale.
func benchSource(name string) string {
	p, _ := workload.ProfileByName(name, benchScale)
	src, err := workload.Source(p)
	if err != nil {
		panic(err)
	}
	return src
}

// compileBenches are the programs the compiler and enlarger benchmarks
// build: li (822 blocks) and gcc, the largest static program, where a pass
// whose cost grows faster than the program shows. Static code does not
// depend on the scale.
var compileBenches = []string{"li", "gcc"}

// benchCompile measures full compilation of each compileBenches program for
// one target.
func benchCompile(b *testing.B, kind isa.Kind) {
	for _, name := range compileBenches {
		src := benchSource(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(src, name, compile.DefaultOptions(kind)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileConventional measures full compilation throughput for the
// conventional backend.
func BenchmarkCompileConventional(b *testing.B) { benchCompile(b, isa.Conventional) }

// BenchmarkCompileBlockStructured measures the block-structured backend.
func BenchmarkCompileBlockStructured(b *testing.B) { benchCompile(b, isa.BlockStructured) }

// BenchmarkEnlarge measures the block enlargement pass itself.
func BenchmarkEnlarge(b *testing.B) {
	for _, name := range compileBenches {
		src := benchSource(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog, err := compile.Compile(src, name, compile.DefaultOptions(isa.BlockStructured))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.Enlarge(prog, core.Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProgramDecode measures what a restarted bsimd does in place of
// building a program: decode the enlarged image a store file carries and
// lay it out. Build for comparison is BenchmarkCompileBlockStructured plus
// BenchmarkEnlarge.
func BenchmarkProgramDecode(b *testing.B) {
	for _, name := range compileBenches {
		prog, err := compile.Compile(benchSource(name), name, compile.DefaultOptions(isa.BlockStructured))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Enlarge(prog, core.Params{}); err != nil {
			b.Fatal(err)
		}
		image, err := isa.Encode(prog)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(image)))
			for i := 0; i < b.N; i++ {
				dec, err := isa.Decode(image)
				if err != nil {
					b.Fatal(err)
				}
				dec.Layout()
			}
		})
	}
}

// BenchmarkEmulator measures functional emulation throughput (ops/sec via
// b.ReportMetric).
func BenchmarkEmulator(b *testing.B) {
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		res, err := emu.New(prog, emu.Config{}).Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Stats.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkTraceRecord measures committed-block trace capture: one
// functional emulation plus the flat-slice event encoding.
func BenchmarkTraceRecord(b *testing.B) {
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			b.Fatal(err)
		}
		bytes += tr.Footprint()
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "trace-bytes")
}

// BenchmarkTraceReplay measures one timing simulation driven from a recorded
// trace — the marginal cost of each extra configuration under
// SimulateMany, with no re-emulation.
func BenchmarkTraceReplay(b *testing.B) {
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		res, err := uarch.ReplayTrace(tr, uarch.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

// sweepBenchTrace records the li trace the sweep benchmarks share.
func sweepBenchTrace(b *testing.B) *emu.Trace {
	b.Helper()
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// xsweepBenchGrid is the acceptance grid for the unified engine: four
// branch-history lengths crossed with four icache sizes, sixteen lanes off
// one enrichment replay.
func xsweepBenchGrid() []uarch.Config {
	var cfgs []uarch.Config
	for _, hb := range []int{4, 8, 12, 16} {
		for sz := 4096; sz <= 32768; sz *= 2 {
			var cfg uarch.Config
			cfg.ICache.SizeBytes = sz
			cfg.Predictor.HistoryBits = hb
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// BenchmarkXSweepLegacy times the 4x4 history x icache cross product as one
// full trace replay per grid point, the baseline BenchmarkXSweepFused is
// read against.
func BenchmarkXSweepLegacy(b *testing.B) {
	tr := sweepBenchTrace(b)
	cfgs := xsweepBenchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uarch.SimulateMany(tr, cfgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXSweepFused times the multi-axis sweep engine on the identical
// cross product: one enrichment replay feeding all sixteen lanes. It reports
// the per-call allocation but gates nothing: uarch's TestSweepAllocLedger is
// what requires a sweep's allocation not to grow with the trace.
func BenchmarkXSweepFused(b *testing.B) {
	benchSweep(b, sweepBenchTrace(b), xsweepBenchGrid())
}

// benchSweep times what a warm bsimd request runs for a sweep grid:
// uarch.Run with the program's Predecode built once, before the timer
// starts. It fails unless the grid takes the sweep.
func benchSweep(b *testing.B, tr *emu.Trace, cfgs []uarch.Config) {
	b.Helper()
	pre := uarch.Predecode(tr.Program(), cfgs[0].EffectiveIssueWidth())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, route, err := uarch.Run(context.Background(), tr, cfgs, pre)
		if err != nil {
			b.Fatal(err)
		}
		if route.Engine != uarch.EngineSweep {
			b.Fatalf("grid took %s, not the sweep: %s", route.Engine, route.Reason)
		}
	}
}

// BenchmarkICacheSweep times the Figure 6/7 grid — a perfect icache and the
// paper's three sizes on the paper machine — on li and gcc for conv and bsa.
// The four lanes differ only in icache size, so they fold onto each other
// while their timing states coincide; bsa, whose lanes coincide least often,
// is folding's worst case. The sweep runs on the calling goroutine, so ns/op
// is its CPU cost.
func BenchmarkICacheSweep(b *testing.B) {
	var cfgs []uarch.Config
	for _, sz := range append([]int{0}, harness.ICacheSizes...) {
		var cfg uarch.Config
		cfg.ICache.SizeBytes = sz
		cfg.ICache.Ways = 4
		cfgs = append(cfgs, cfg)
	}
	for _, name := range compileBenches {
		for _, target := range []struct {
			name string
			kind isa.Kind
		}{{"conv", isa.Conventional}, {"bsa", isa.BlockStructured}} {
			prog, err := compile.Compile(benchSource(name), name, compile.DefaultOptions(target.kind))
			if err != nil {
				b.Fatal(err)
			}
			if target.kind == isa.BlockStructured {
				if _, err := core.Enlarge(prog, core.Params{}); err != nil {
					b.Fatal(err)
				}
			}
			tr, err := emu.Record(prog, emu.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+target.name, func(b *testing.B) { benchSweep(b, tr, cfgs) })
		}
	}
}

// BenchmarkPredictorBank measures the shared-BHR predictor bank's per-event
// cost on the hot path — eight predictor variants stepped per committed
// control block. The bank must be allocation-free after construction
// (TestBankStepAllocs pins this to zero; -benchmem shows it here).
func BenchmarkPredictorBank(b *testing.B) {
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.BlockStructured))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Enlarge(prog, core.Params{}); err != nil {
		b.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pcfgs := make([]bpred.Config, 0, 8)
	for _, hb := range []int{1, 2, 4, 6, 8, 10, 12, 16} {
		pcfgs = append(pcfgs, bpred.Config{HistoryBits: hb})
	}
	bank := bpred.NewBank(true, pcfgs)
	out := make([]isa.BlockID, bank.Len())
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		err := tr.Replay(func(ev *emu.BlockEvent) error {
			if ev.Next != isa.NoBlock {
				bank.Step(ev.Block, ev.Next, ev.Taken, ev.SuccIdx, out)
				events++
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTimingSim measures the full emulate+time pipeline.
func BenchmarkTimingSim(b *testing.B) {
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		res, _, err := uarch.RunProgram(prog, uarch.Config{}, emu.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

// mappedLiTrace writes the li trace in v3 form and maps it back, the load
// path a bsimd store hit takes.
func mappedLiTrace(tb testing.TB) *emu.TraceMapping {
	tb.Helper()
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "li.bstr")
	if err := os.WriteFile(path, tr.EncodeBytes(nil), 0o644); err != nil {
		tb.Fatal(err)
	}
	m, err := emu.OpenTraceFile(path, prog)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestMappedReplayZeroAlloc pins the zero-decode contract's second half:
// once a v3 trace is mapped, walking every event — the loop under every
// sweep and replay engine — allocates nothing. The event struct itself is
// hoisted outside the measured region by warmup; what this guards is any
// per-event or per-chunk allocation creeping into the mapped columns' path.
func TestMappedReplayZeroAlloc(t *testing.T) {
	m := mappedLiTrace(t)
	defer m.Release()
	if !m.ZeroCopy() {
		t.Skip("platform mapped the file into the heap; zero-copy contract does not apply")
	}
	tr := m.Trace()
	var sink int64
	handler := func(ev *emu.BlockEvent) error {
		sink += int64(ev.SuccIdx) + int64(len(ev.MemAddrs))
		return nil
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := tr.Replay(handler); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("mapped replay allocated %.1f objects per full walk (%d events), want 0",
			allocs, tr.NumEvents())
	}
	_ = sink
}

// BenchmarkTraceLoadMmap measures the store-hit path: mapping the file
// and aliasing its fixed-stride columns in place (checksum validation is the
// only per-byte work).
func BenchmarkTraceLoadMmap(b *testing.B) {
	prog, err := compile.Compile(benchSource("li"), "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "li.bstr")
	if err := os.WriteFile(path, tr.EncodeBytes(nil), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := emu.OpenTraceFile(path, prog)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}
