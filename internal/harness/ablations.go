package harness

import (
	"fmt"

	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// Ablations beyond the paper's figures, probing the design choices DESIGN.md
// calls out: the issue-width block cap (rule 1), the fault budget (rule 2),
// the superblock/static-prediction alternative (§3), the §6 bias-threshold
// heuristic, and the predictor history length.

// meanCyclesWithParams averages BSA cycles and code growth across
// benchmarks for an enlargement parameterization.
func (h *Harness) meanCyclesWithParams(params core.Params) (float64, float64, error) {
	var cyc, growth float64
	for _, b := range h.Benches {
		prog, st, err := b.CompileBSA(params)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", b.Profile.Name, err)
		}
		res, err := h.Run(prog, baseConfig(LargeICache, false))
		if err != nil {
			return 0, 0, err
		}
		cyc += float64(res.Cycles) / float64(len(h.Benches))
		growth += st.CodeGrowth() / float64(len(h.Benches))
	}
	return cyc, growth, nil
}

// AblateBlockSize sweeps the maximum atomic block size (paper rule 1 pins it
// to the 16-wide issue width).
func (h *Harness) AblateBlockSize() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation A1: maximum atomic block size (paper: 16 = issue width)",
		Columns: []string{"MaxOps", "Mean BSA Cycles", "Mean Code Growth", "vs MaxOps=16"},
	}
	sizes := []int{4, 8, 16, 32}
	cycles := make([]float64, len(sizes))
	base := 0.0
	for i, maxOps := range sizes {
		cyc, growth, err := h.meanCyclesWithParams(core.Params{MaxOps: maxOps})
		if err != nil {
			return nil, err
		}
		cycles[i] = cyc
		if maxOps == 16 {
			base = cyc
		}
		t.AddRow(maxOps, int64(cyc), fmt.Sprintf("%.2fx", growth), "")
	}
	for i := range sizes {
		t.Rows[i][3] = stats.Pct(cycles[i]/base - 1)
	}
	return t, nil
}

// AblateFaults sweeps the per-block fault budget (paper rule 2 pins it to
// two, bounding successor sets at eight).
func (h *Harness) AblateFaults() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation A2: fault operations per block (paper: 2)",
		Columns: []string{"MaxFaults", "Mean BSA Cycles", "Mean Code Growth"},
	}
	for _, mf := range []int{-1, 1, 2, 3} {
		label := mf
		if mf == -1 {
			label = 0
		}
		cyc, growth, err := h.meanCyclesWithParams(core.Params{MaxFaults: mf})
		if err != nil {
			return nil, err
		}
		t.AddRow(label, int64(cyc), fmt.Sprintf("%.2fx", growth))
	}
	return t, nil
}

// AblateSuperblock compares dynamic block enlargement against the
// superblock-style static-prediction enlarger (paper §3, figure 2) and the
// unenlarged baseline.
func (h *Harness) AblateSuperblock() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation A3: block enlargement vs superblock (static prediction) formation",
		Columns: []string{"Benchmark", "No Enlarge", "Superblock", "Enlarged",
			"Superblock vs Conv-fetch", "Enlarged vs Superblock"},
		Note: "Cycles at the Figure-3 configuration; lower is better.",
	}
	for _, b := range h.Benches {
		// Unenlarged block-structured baseline.
		raw, _, err := b.CompileBSA(core.Params{MaxFaults: -1, MaxOps: 1})
		if err != nil {
			return nil, err
		}
		rRaw, err := h.Run(raw, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		// Superblock: profile the unenlarged program, merge majority side
		// only. Compilation is deterministic, so the profile's block IDs
		// match those of the fresh compile it steers.
		prof, err := core.CollectProfile(raw, 0)
		if err != nil {
			return nil, err
		}
		super, _, err := b.CompileBSA(core.Params{Static: true, Profile: prof})
		if err != nil {
			return nil, err
		}
		rSuper, err := h.Run(super, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		rFull, err := h.Run(b.BSA, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, rRaw.Cycles, rSuper.Cycles, rFull.Cycles,
			stats.Pct(float64(rSuper.Cycles)/float64(rRaw.Cycles)-1),
			stats.Pct(float64(rFull.Cycles)/float64(rSuper.Cycles)-1))
	}
	return t, nil
}

// AblateHistory sweeps the predictor's global history length for both ISAs.
// The whole sweep is a batch replay: per benchmark executable, one recorded
// trace drives all history lengths.
func (h *Harness) AblateHistory() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation A4: branch predictor history length",
		Columns: []string{"History Bits", "Mean Conv Cycles", "Mean BSA Cycles"},
	}
	grid := historyGrid()
	convCyc := make([][]int64, len(h.Benches))
	bsaCyc := make([][]int64, len(h.Benches))
	err := h.forEachBench(func(i int) error {
		b := h.Benches[i]
		for _, side := range []struct {
			prog *isa.Program
			out  *[]int64
		}{{b.Conv, &convCyc[i]}, {b.BSA, &bsaCyc[i]}} {
			res, err := h.runMany(side.prog, grid)
			if err != nil {
				return err
			}
			cyc := make([]int64, len(res))
			for j, r := range res {
				cyc[j] = r.Cycles
			}
			*side.out = cyc
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Reduce means in benchmark order so the table is identical at every
	// worker count.
	cc := make([]float64, len(grid))
	cb := make([]float64, len(grid))
	for i := range h.Benches {
		for j := range grid {
			cc[j] += float64(convCyc[i][j]) / float64(len(h.Benches))
			cb[j] += float64(bsaCyc[i][j]) / float64(len(h.Benches))
		}
	}
	for j, cfg := range grid {
		t.AddRow(cfg.Predictor.HistoryBits, int64(cc[j]), int64(cb[j]))
	}
	return t, nil
}

// historyGrid is ablation A4's batch: the predictor's global history length
// at the Figure 3 machine.
func historyGrid() []uarch.Config {
	var cfgs []uarch.Config
	for _, hb := range []int{2, 4, 8, 12, 16} {
		cfg := baseConfig(LargeICache, false)
		cfg.Predictor.HistoryBits = hb
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// AblateMinBias evaluates the paper's §6 proposal: skip forking unbiased
// branches to trade block size for icache pressure.
func (h *Harness) AblateMinBias() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation A5: §6 bias-threshold enlargement (skip unbiased branches)",
		Columns: []string{"MinBias", "Mean BSA Cycles (small icache)", "Mean Code Growth"},
		Note:    fmt.Sprintf("Measured at the smallest icache (%s), where duplication hurts most.", PaperICacheLabel(ICacheSizes[0])),
	}
	for _, mb := range []float64{0, 0.6, 0.75, 0.9} {
		var cyc, growth float64
		for _, b := range h.Benches {
			params := core.Params{MinBias: mb}
			if mb > 0 {
				raw, _, err := b.CompileBSA(core.Params{MaxFaults: -1, MaxOps: 1})
				if err != nil {
					return nil, err
				}
				prof, err := core.CollectProfile(raw, 0)
				if err != nil {
					return nil, err
				}
				params.Profile = prof
			}
			prog, st, err := b.CompileBSA(params)
			if err != nil {
				return nil, err
			}
			res, err := h.Run(prog, baseConfig(ICacheSizes[0], false))
			if err != nil {
				return nil, err
			}
			cyc += float64(res.Cycles) / float64(len(h.Benches))
			growth += st.CodeGrowth() / float64(len(h.Benches))
		}
		t.AddRow(fmt.Sprintf("%.2f", mb), int64(cyc), fmt.Sprintf("%.2fx", growth))
	}
	return t, nil
}

// Mispredicts summarizes misprediction behavior (supporting data for the
// Figure 3 vs 4 discussion: fault mispredictions cost more).
func (h *Harness) Mispredicts() (*stats.Table, error) {
	conv, bsa, err := h.pairResults(LargeICache, false)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: "Supplementary: misprediction breakdown (Figure 3 configuration)",
		Columns: []string{"Benchmark", "Conv Mispred", "BSA Trap Mispred",
			"BSA Fault Mispred", "BSA Misfetch", "Conv Recovery Cyc", "BSA Recovery Cyc"},
	}
	for i, b := range h.Benches {
		t.AddRow(b.Profile.Name,
			conv[i].Mispredicts(),
			bsa[i].TrapMispredicts, bsa[i].FaultMispredicts, bsa[i].Misfetches,
			conv[i].RecoveryStall, bsa[i].RecoveryStall)
	}
	return t, nil
}

// AblateTraceCache compares the paper's §3 rival mechanisms head to head:
// plain conventional fetch, conventional fetch with a trace cache
// (run-time block combining), and the block-structured executable
// (compile-time block combining), all at the Figure-3 configuration.
func (h *Harness) AblateTraceCache() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation A6: trace cache (run-time combining) vs block enlargement (compile-time)",
		Columns: []string{"Benchmark", "Conv", "Conv+TC", "BSA",
			"TC vs Conv", "BSA vs Conv+TC"},
		Note: "Cycles; the trace cache is 64 sets x 4 ways, 4 blocks / 16 ops / 3 branches per trace.",
	}
	for _, b := range h.Benches {
		rConv, err := h.Run(b.Conv, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		cfg := baseConfig(LargeICache, false)
		cfg.TraceCache = uarch.TraceCacheConfig{Sets: 64, Ways: 4}
		rTC, err := h.Run(b.Conv, cfg)
		if err != nil {
			return nil, err
		}
		rBSA, err := h.Run(b.BSA, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, rConv.Cycles, rTC.Cycles, rBSA.Cycles,
			stats.Pct(float64(rTC.Cycles)/float64(rConv.Cycles)-1),
			stats.Pct(float64(rBSA.Cycles)/float64(rTC.Cycles)-1))
	}
	return t, nil
}

// AblateIfConvert evaluates the paper's §6 predicated-execution proposal:
// if-conversion eliminates branches and creates larger basic blocks, which
// in turn lets block enlargement build larger atomic blocks. Four builds per
// benchmark: conventional and block-structured, each with and without
// if-conversion.
func (h *Harness) AblateIfConvert() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation A7: predicated execution (if-conversion, paper S6)",
		Columns: []string{"Benchmark", "Conv", "Conv+IfC", "BSA", "BSA+IfC",
			"BSA BlockSize", "BSA+IfC BlockSize"},
		Note: "Cycles at the Figure-3 configuration; block sizes are retired ops/block.",
	}
	for _, b := range h.Benches {
		rConv, err := h.Run(b.Conv, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		rBSA, err := h.Run(b.BSA, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		convIfc, err := compile.Compile(b.Source, b.Profile.Name,
			compile.Options{Kind: isa.Conventional, Optimize: true, IfConvert: true})
		if err != nil {
			return nil, err
		}
		rConvIfc, err := h.Run(convIfc, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		bsaIfc, err := compile.Compile(b.Source, b.Profile.Name,
			compile.Options{Kind: isa.BlockStructured, Optimize: true, IfConvert: true})
		if err != nil {
			return nil, err
		}
		if _, err := core.Enlarge(bsaIfc, core.Params{}); err != nil {
			return nil, err
		}
		rBSAIfc, err := h.Run(bsaIfc, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, rConv.Cycles, rConvIfc.Cycles, rBSA.Cycles, rBSAIfc.Cycles,
			fmt.Sprintf("%.2f", rBSA.AvgBlockSize()), fmt.Sprintf("%.2f", rBSAIfc.AvgBlockSize()))
	}
	return t, nil
}

// AblateInline evaluates the paper's §6 inlining proposal: procedure calls
// are the main limiter of block enlargement (rule 3), so inlining small leaf
// functions should raise BSA retired block size and performance.
func (h *Harness) AblateInline() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation A8: inlining small leaf functions (paper S6)",
		Columns: []string{"Benchmark", "BSA", "BSA+Inline",
			"BlockSize", "BlockSize+Inline", "Delta"},
		Note: "Cycles at the Figure-3 configuration.",
	}
	for _, b := range h.Benches {
		rBSA, err := h.Run(b.BSA, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		inl, err := compile.Compile(b.Source, b.Profile.Name,
			compile.Options{Kind: isa.BlockStructured, Optimize: true, Inline: true})
		if err != nil {
			return nil, err
		}
		if _, err := core.Enlarge(inl, core.Params{}); err != nil {
			return nil, err
		}
		rInl, err := h.Run(inl, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, rBSA.Cycles, rInl.Cycles,
			fmt.Sprintf("%.2f", rBSA.AvgBlockSize()), fmt.Sprintf("%.2f", rInl.AvgBlockSize()),
			stats.Pct(float64(rInl.Cycles)/float64(rBSA.Cycles)-1))
	}
	return t, nil
}

// AblateProfileLayout evaluates profile-guided code placement at the small
// icache: enlargement duplicates code, and packing the variants that
// actually execute onto few lines reclaims part of the duplication cost (a
// placement application of the paper's §6 profiling proposal).
func (h *Harness) AblateProfileLayout() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation A9: profile-guided code layout (hot blocks packed first)",
		Columns: []string{"Benchmark", "BSA", "BSA+HotLayout", "Delta", "ICMiss%", "ICMiss%+Layout"},
		Note:    fmt.Sprintf("Cycles at the smallest icache (%s).", PaperICacheLabel(ICacheSizes[0])),
	}
	for _, b := range h.Benches {
		base, err := h.Run(b.BSA, baseConfig(ICacheSizes[0], false))
		if err != nil {
			return nil, err
		}
		// Fresh compile+enlarge so the relayout does not disturb the cached
		// benchmark's addresses.
		prog, _, err := b.CompileBSA(core.Params{})
		if err != nil {
			return nil, err
		}
		counts, err := core.CollectBlockCounts(prog, 0)
		if err != nil {
			return nil, err
		}
		core.ProfileLayout(prog, counts)
		laid, err := h.Run(prog, baseConfig(ICacheSizes[0], false))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, base.Cycles, laid.Cycles,
			stats.Pct(float64(laid.Cycles)/float64(base.Cycles)-1),
			fmt.Sprintf("%.2f", 100*base.ICache.MissRate()),
			fmt.Sprintf("%.2f", 100*laid.ICache.MissRate()))
	}
	return t, nil
}

// AblateMultiBlock completes the §3 related-work triangle: plain
// conventional fetch, multi-block fetch (branch-address-cache style: several
// predictions per cycle, interleaved icache, one extra pipe stage), the
// trace cache, and the block-structured executable.
func (h *Harness) AblateMultiBlock() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation A10: multi-block fetch (S3 hardware rival) vs trace cache vs enlargement",
		Columns: []string{"Benchmark", "Conv", "Conv+MBF2", "Conv+MBF4", "Conv+TC", "BSA",
			"GroupSize(MBF4)"},
		Note: "Cycles at the Figure-3 configuration. MBF pays one extra front-end stage and icache bank conflicts (8 banks).",
	}
	for _, b := range h.Benches {
		rConv, err := h.Run(b.Conv, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		mbf := func(k int) (*uarch.Result, error) {
			cfg := baseConfig(LargeICache, false)
			cfg.MultiBlock = uarch.MultiBlockConfig{Blocks: k}
			return h.Run(b.Conv, cfg)
		}
		r2, err := mbf(2)
		if err != nil {
			return nil, err
		}
		r4, err := mbf(4)
		if err != nil {
			return nil, err
		}
		cfgTC := baseConfig(LargeICache, false)
		cfgTC.TraceCache = uarch.TraceCacheConfig{Sets: 64, Ways: 4}
		rTC, err := h.Run(b.Conv, cfgTC)
		if err != nil {
			return nil, err
		}
		rBSA, err := h.Run(b.BSA, baseConfig(LargeICache, false))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Profile.Name, rConv.Cycles, r2.Cycles, r4.Cycles, rTC.Cycles, rBSA.Cycles,
			fmt.Sprintf("%.2f", r4.Multi.AvgGroupSize()))
	}
	return t, nil
}
