// Package harness assembles the full experiment pipelines that regenerate
// every table and figure of the paper's evaluation (§5), plus the ablations
// DESIGN.md calls out. Each experiment compiles the eight synthetic
// SPECint95 profiles for both ISAs (sharing the middle end, as the paper
// does), applies block enlargement to the block-structured executables, runs
// the functional emulator feeding the cycle-level timing model, and renders
// a table whose shape is compared against the paper in EXPERIMENTS.md.
//
// Scaling: all dynamic op counts are ~50x below the paper's (10^6–10^7 vs
// ~10^8) and the icache sweep is scaled with them — 2/4/8 KB standing in for
// the paper's 16/32/64 KB — keeping the code-footprint : icache ratio in the
// paper's regime.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"bsisa/internal/cache"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// Scaled icache sweep: stands in for the paper's 16/32/64 KB.
var (
	ICacheSizes = []int{8 * 1024, 16 * 1024, 32 * 1024}
	// LargeICache is the Figure 3/4 configuration (the paper's 64 KB,
	// 4-way).
	LargeICache = 32 * 1024
)

// PaperICacheLabel maps a scaled size to the paper size it stands in for.
func PaperICacheLabel(size int) string {
	switch size {
	case 8 * 1024:
		return "8KB (paper 16KB)"
	case 16 * 1024:
		return "16KB (paper 32KB)"
	case 32 * 1024:
		return "32KB (paper 64KB)"
	default:
		return fmt.Sprintf("%dB", size)
	}
}

// Options configures a harness run.
type Options struct {
	// Scale multiplies workload dynamic size (1.0 = bsbench reference,
	// tests use ~0.02).
	Scale float64
	// Progress, when non-nil, receives per-step progress lines.
	Progress io.Writer
	// Workers bounds benchmark preparation and the per-benchmark fan-out: 0
	// means GOMAXPROCS, 1 forces serial execution. Each timing engine runs
	// on the goroutine of the benchmark that called it. Results are
	// identical at every worker count.
	Workers int
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// forEachIndex runs fn(0..n-1) over at most `workers` goroutines and returns
// the first error. Each index is handed to exactly one worker, so writes to
// index-i slots need no locking. The call returns only after every worker
// has exited.
func forEachIndex(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Bench is one prepared benchmark: compiled executables for both ISAs.
type Bench struct {
	Profile workload.Profile
	Source  string
	Conv    *isa.Program // conventional ISA
	BSA     *isa.Program // block-structured, enlarged
	Enlarge *core.Stats
}

// Harness caches prepared benchmarks, committed-block traces, and timing
// results.
type Harness struct {
	Opts    Options
	Benches []*Bench

	mu sync.Mutex
	// results memoizes timing results by program and configuration, for
	// the prepared executables only: a program compiled on the fly is never
	// looked up again, so keeping its results would only pin it in memory.
	results map[runKey]*uarch.Result
	// traces holds one lazily recorded committed-block trace per prepared
	// benchmark executable. The committed stream depends only on the program
	// and the emulation budget — never on the uarch.Config — so every
	// figure, sweep point and ablation that times one of these programs
	// replays the shared trace instead of re-running functional emulation.
	// Programs compiled on the fly (fresh ablation builds) are not in this
	// map and take the direct emulate-and-time path.
	traces map[*isa.Program]*traceEntry
}

// runKey names one memoized timing result.
type runKey struct {
	prog *isa.Program
	cfg  uarch.Config
}

// traceEntry memoizes one recording with single-flight semantics: with more
// than one worker several goroutines may want the same trace at once, and
// exactly one of them must pay for the recording.
type traceEntry struct {
	once sync.Once
	t    *emu.Trace
	err  error
}

// New prepares all eight benchmarks, compiling them across the configured
// worker pool. Preparation order does not affect results: benchmarks are
// compiled independently and placed at fixed positions.
func New(opts Options) (*Harness, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	h := &Harness{Opts: opts, results: map[runKey]*uarch.Result{}}
	profiles := workload.Profiles(opts.Scale)
	h.Benches = make([]*Bench, len(profiles))
	err := forEachIndex(len(profiles), opts.workers(), func(i int) error {
		opts.progress("compile %-8s ...", profiles[i].Name)
		b, err := prepare(profiles[i])
		if err != nil {
			return fmt.Errorf("harness: prepare %s: %w", profiles[i].Name, err)
		}
		h.Benches[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	h.traces = make(map[*isa.Program]*traceEntry, 2*len(h.Benches))
	for _, b := range h.Benches {
		h.traces[b.Conv] = &traceEntry{}
		h.traces[b.BSA] = &traceEntry{}
	}
	return h, nil
}

func prepare(p workload.Profile) (*Bench, error) {
	src, err := workload.Source(p)
	if err != nil {
		return nil, err
	}
	conv, err := compile.Compile(src, p.Name, compile.DefaultOptions(isa.Conventional))
	if err != nil {
		return nil, fmt.Errorf("conventional: %w", err)
	}
	bsa, err := compile.Compile(src, p.Name, compile.DefaultOptions(isa.BlockStructured))
	if err != nil {
		return nil, fmt.Errorf("block-structured: %w", err)
	}
	est, err := core.Enlarge(bsa, core.Params{})
	if err != nil {
		return nil, fmt.Errorf("enlarge: %w", err)
	}
	return &Bench{Profile: p, Source: src, Conv: conv, BSA: bsa, Enlarge: est}, nil
}

// CompileBSA recompiles a benchmark's block-structured executable with
// custom enlargement parameters (ablations).
func (b *Bench) CompileBSA(params core.Params) (*isa.Program, *core.Stats, error) {
	prog, err := compile.Compile(b.Source, b.Profile.Name, compile.DefaultOptions(isa.BlockStructured))
	if err != nil {
		return nil, nil, err
	}
	st, err := core.Enlarge(prog, params)
	if err != nil {
		return nil, nil, err
	}
	return prog, st, nil
}

// baseConfig is the paper's processor with the given icache size (0 =
// perfect) and prediction mode.
func baseConfig(icacheBytes int, perfectBP bool) uarch.Config {
	return uarch.Config{
		ICache:    cache.Config{SizeBytes: icacheBytes, Ways: 4},
		PerfectBP: perfectBP,
	}
}

// ClearResults drops memoized timing results (benchmarks use this so every
// iteration measures real simulation work). Compiled programs and recorded
// traces are kept: both are inputs to simulation, not results, and are
// independent of any timing configuration.
func (h *Harness) ClearResults() {
	h.mu.Lock()
	h.results = map[runKey]*uarch.Result{}
	h.mu.Unlock()
}

// Trace returns the committed-block trace for one of the harness's prepared
// benchmark executables, recording it on first use (ok=false for programs
// the harness did not prepare; those have no memo slot and callers should
// fall back to direct emulation).
func (h *Harness) Trace(prog *isa.Program) (t *emu.Trace, ok bool, err error) {
	e, ok := h.traces[prog]
	if !ok {
		return nil, false, nil
	}
	e.once.Do(func() {
		e.t, e.err = emu.Record(prog, emu.Config{})
	})
	return e.t, true, e.err
}

// Run simulates one program under a config. Prepared benchmark
// executables replay their shared trace, and their results are memoized by
// program and config; other programs are functionally emulated.
func (h *Harness) Run(prog *isa.Program, cfg uarch.Config) (*uarch.Result, error) {
	rs, err := h.runMany(prog, []uarch.Config{cfg})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runMany simulates one program under several configs at once. For a
// prepared executable, configurations without a memoized result share its
// committed-block trace (recorded on first need) and run on whichever
// engine uarch.Run routes them to; every engine returns the same results,
// so routing never changes a table. Programs without a trace slot are
// emulated directly, once per config.
func (h *Harness) runMany(prog *isa.Program, cfgs []uarch.Config) ([]*uarch.Result, error) {
	tr, traced, err := h.Trace(prog)
	if err != nil {
		return nil, fmt.Errorf("harness: trace %s (%s): %w", prog.Name, prog.Kind, err)
	}
	results := make([]*uarch.Result, len(cfgs))
	if !traced {
		for i, cfg := range cfgs {
			if results[i], _, err = uarch.RunProgram(prog, cfg, emu.Config{}); err != nil {
				return nil, fmt.Errorf("harness: run %s (%s): %w", prog.Name, prog.Kind, err)
			}
		}
		return results, nil
	}
	var missing []int
	var need []uarch.Config
	h.mu.Lock()
	for i, cfg := range cfgs {
		if r, ok := h.results[runKey{prog, cfg}]; ok {
			results[i] = r
		} else {
			missing, need = append(missing, i), append(need, cfg)
		}
	}
	h.mu.Unlock()
	if len(missing) == 0 {
		return results, nil
	}
	rs, _, err := uarch.Run(context.Background(), tr, need, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: run %s (%s): %w", prog.Name, prog.Kind, err)
	}
	h.mu.Lock()
	for j, i := range missing {
		results[i] = rs[j]
		h.results[runKey{prog, need[j]}] = rs[j]
	}
	h.mu.Unlock()
	return results, nil
}

// forEachBench runs fn for every benchmark index over the configured worker
// pool and returns the first error.
func (h *Harness) forEachBench(fn func(i int) error) error {
	return forEachIndex(len(h.Benches), h.Opts.workers(), fn)
}

// pairResults runs conventional and block-structured executables of every
// benchmark under the config, in parallel when enabled. Each executable's
// trace is recorded at most once across all figures and replayed per config.
func (h *Harness) pairResults(icache int, perfectBP bool) (conv, bsa []*uarch.Result, err error) {
	conv = make([]*uarch.Result, len(h.Benches))
	bsa = make([]*uarch.Result, len(h.Benches))
	cfg := baseConfig(icache, perfectBP)
	label := PaperICacheLabel(icache)
	if perfectBP {
		label += ", perfect BP"
	}
	err = h.forEachBench(func(i int) error {
		b := h.Benches[i]
		h.Opts.progress("run %-8s %s (conventional)", b.Profile.Name, label)
		rc, err := h.Run(b.Conv, cfg)
		if err != nil {
			return err
		}
		h.Opts.progress("run %-8s %s (block-structured)", b.Profile.Name, label)
		rb, err := h.Run(b.BSA, cfg)
		if err != nil {
			return err
		}
		conv[i], bsa[i] = rc, rb
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return conv, bsa, nil
}

// Table1 renders the instruction classes and latencies (paper Table 1).
func Table1() *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: Instruction classes and latencies",
		Columns: []string{"Instruction Class", "Exec. Lat.", "Description"},
	}
	for _, row := range isa.Classes() {
		t.AddRow(row.Class.String(), row.Latency, row.Description)
	}
	return t
}

// Table2 renders the benchmark inventory with measured dynamic conventional
// op counts (paper Table 2; counts are scaled, see package comment).
func (h *Harness) Table2() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 2: Benchmarks, inputs, and dynamic conventional-ISA operation counts",
		Columns: []string{"Benchmark", "Input (modeled)", "# of Operations", "Static Code (B)"},
		Note:    "Counts are ~50x below the paper's SPECint95 runs; icache sizes are scaled to match.",
	}
	for _, b := range h.Benches {
		// The shared trace carries the functional statistics; figures that
		// already ran have paid for it, making this table nearly free.
		tr, _, err := h.Trace(b.Conv)
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, b.Profile.Input, tr.EmuResult().Stats.Ops, b.Conv.CodeBytes())
	}
	return t, nil
}

// cyclesTable renders a conventional-vs-BSA cycle comparison (Figures 3 and
// 4 of the paper).
func (h *Harness) cyclesTable(title string, perfectBP bool) (*stats.Table, error) {
	conv, bsa, err := h.pairResults(LargeICache, perfectBP)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: title,
		Columns: []string{"Benchmark", "Conv Cycles", "BSA Cycles", "Reduction",
			"Conv IPC", "BSA IPC"},
	}
	var reductions []float64
	for i, b := range h.Benches {
		red := 1 - float64(bsa[i].Cycles)/float64(conv[i].Cycles)
		reductions = append(reductions, red)
		t.AddRow(b.Profile.Name, conv[i].Cycles, bsa[i].Cycles, stats.Pct(red),
			conv[i].IPC(), bsa[i].IPC())
	}
	t.AddRow("MEAN", "", "", stats.Pct(stats.Mean(reductions)), "", "")
	return t, nil
}

// Figure3 is the headline comparison: real predictor, large icache.
func (h *Harness) Figure3() (*stats.Table, error) {
	return h.cyclesTable(
		fmt.Sprintf("Figure 3: Execution cycles, conventional vs block-structured ISA (%s, real predictor)",
			PaperICacheLabel(LargeICache)),
		false)
}

// Figure4 repeats Figure 3 with perfect branch prediction.
func (h *Harness) Figure4() (*stats.Table, error) {
	return h.cyclesTable(
		fmt.Sprintf("Figure 4: Execution cycles with PERFECT branch prediction (%s)",
			PaperICacheLabel(LargeICache)),
		true)
}

// Figure5 reports average retired block sizes.
func (h *Harness) Figure5() (*stats.Table, error) {
	conv, bsa, err := h.pairResults(LargeICache, false)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 5: Average retired block size (operations per block)",
		Columns: []string{"Benchmark", "Conventional", "Block-Structured", "Growth"},
	}
	var cs, bs []float64
	for i, b := range h.Benches {
		c, bb := conv[i].AvgBlockSize(), bsa[i].AvgBlockSize()
		cs, bs = append(cs, c), append(bs, bb)
		t.AddRow(b.Profile.Name, c, bb, fmt.Sprintf("%.2fx", bb/c))
	}
	t.AddRow("MEAN", stats.Mean(cs), stats.Mean(bs),
		fmt.Sprintf("%.2fx", stats.Mean(bs)/stats.Mean(cs)))
	return t, nil
}

// icacheSensitivity renders relative slowdown versus a perfect icache across
// the icache sweep for one ISA (Figures 6 and 7).
func (h *Harness) icacheSensitivity(title string, useBSA bool) (*stats.Table, error) {
	kindTag := "conv"
	if useBSA {
		kindTag = "bsa"
	}
	cols := []string{"Benchmark"}
	for _, sz := range ICacheSizes {
		cols = append(cols, PaperICacheLabel(sz))
	}
	t := &stats.Table{
		Title:   title,
		Columns: cols,
		Note:    "Cells: (cycles(size) - cycles(perfect icache)) / cycles(perfect icache).",
	}
	rels := make([][]float64, len(h.Benches))
	err := h.forEachBench(func(i int) error {
		b := h.Benches[i]
		prog := b.Conv
		if useBSA {
			prog = b.BSA
		}
		// One batch per benchmark: the perfect-icache reference and every
		// sweep point share one fused replay of the same trace.
		h.Opts.progress("run %-8s icache sweep (%s)", b.Profile.Name, kindTag)
		res, err := h.runMany(prog, icacheGrid())
		if err != nil {
			return err
		}
		perfect := res[0]
		rels[i] = make([]float64, len(res)-1)
		for j, r := range res[1:] {
			rels[i][j] = float64(r.Cycles-perfect.Cycles) / float64(perfect.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Means reduce in benchmark order regardless of which worker finished
	// first, so the rendered table is identical at every worker count.
	means := make([]float64, len(ICacheSizes))
	for i, b := range h.Benches {
		row := []any{b.Profile.Name}
		for j, rel := range rels[i] {
			means[j] += rel / float64(len(h.Benches))
			row = append(row, rel)
		}
		t.AddRow(row...)
	}
	meanRow := []any{"MEAN"}
	for _, m := range means {
		meanRow = append(meanRow, m)
	}
	t.AddRow(meanRow...)
	return t, nil
}

// icacheGrid is the Figure 6/7 batch: the perfect-icache reference, then
// every paper icache size, at the Figure 3 machine.
func icacheGrid() []uarch.Config {
	cfgs := []uarch.Config{baseConfig(0, false)}
	for _, sz := range ICacheSizes {
		cfgs = append(cfgs, baseConfig(sz, false))
	}
	return cfgs
}

// Figure6 is the conventional-ISA icache sensitivity sweep.
func (h *Harness) Figure6() (*stats.Table, error) {
	return h.icacheSensitivity(
		"Figure 6: Relative increase in execution time vs perfect icache (conventional ISA)", false)
}

// Figure7 is the block-structured sweep (larger slowdowns; gcc/go worst).
func (h *Harness) Figure7() (*stats.Table, error) {
	return h.icacheSensitivity(
		"Figure 7: Relative increase in execution time vs perfect icache (block-structured ISA)", true)
}
