// bsim runs an executable container on the functional emulator and,
// optionally, through the cycle-level timing model of the paper's 16-wide
// dynamically scheduled processor.
//
// Usage:
//
//	bsim [flags] prog.bso
//
//	-asm             input is an assembly listing (bsdis format), not a container
//	-timing          run the timing model and report cycles/IPC
//	-icache N        icache size in bytes (0 = perfect)
//	-sweep-icache L  comma-separated icache sizes: record the committed-block
//	                 trace once, time every size from it, print a cycles table
//	-sweep-pred L    comma-separated branch-history lengths: record the trace
//	                 once, time every predictor point from it
//	                 (with -sweep-icache: the full history x size cross
//	                 product, all from one fused enrichment replay)
//	-perfect-bp      perfect branch prediction
//	-max-ops N       emulation budget
//	-q               suppress program output values
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/uarch"
)

func main() {
	asm := flag.Bool("asm", false, "input is an assembly listing (bsdis format)")
	timing := flag.Bool("timing", false, "run the cycle-level timing model")
	icache := flag.Int("icache", 0, "icache size in bytes (0 = perfect)")
	sweep := flag.String("sweep-icache", "", "comma-separated icache sizes to sweep on one recorded trace")
	sweepPred := flag.String("sweep-pred", "", "comma-separated branch-history lengths to sweep on one recorded trace")
	perfectBP := flag.Bool("perfect-bp", false, "perfect branch prediction")
	maxOps := flag.Int64("max-ops", 0, "emulation operation budget (0 = default)")
	quiet := flag.Bool("q", false, "suppress program output values")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bsim [flags] prog.bso")
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var prog *isa.Program
	if *asm {
		prog, err = isa.Assemble(string(data))
	} else {
		prog, err = isa.Decode(data)
	}
	if err != nil {
		fatal(err)
	}
	prog.Layout()
	if err := prog.Validate(); err != nil {
		fatal(err)
	}

	emuCfg := emu.Config{MaxOps: *maxOps}
	if *sweep != "" || *sweepPred != "" {
		// The two axes compose: each flag alone sweeps its axis, both
		// together sweep the cross product, always from one recorded trace.
		if err := sweepGrid(prog, emuCfg, *sweep, *sweepPred, *icache, *perfectBP, quiet); err != nil {
			fatal(err)
		}
		return
	}
	if !*timing {
		res, err := emu.New(prog, emuCfg).Run(nil)
		if err != nil {
			fatal(err)
		}
		report(prog, res, quiet)
		return
	}

	cfg := uarch.Config{
		ICache:    cache.Config{SizeBytes: *icache, Ways: 4},
		PerfectBP: *perfectBP,
	}
	tres, eres, err := uarch.RunProgram(prog, cfg, emuCfg)
	if err != nil {
		fatal(err)
	}
	report(prog, eres, quiet)
	fmt.Printf("cycles:            %d\n", tres.Cycles)
	fmt.Printf("IPC:               %.3f\n", tres.IPC())
	fmt.Printf("avg retired block: %.2f ops\n", tres.AvgBlockSize())
	fmt.Printf("mispredicts:       %d trap, %d fault, %d misfetch\n",
		tres.TrapMispredicts, tres.FaultMispredicts, tres.Misfetches)
	fmt.Printf("icache:            %d accesses, %d misses (%.2f%%)\n",
		tres.ICache.Accesses, tres.ICache.Misses, 100*tres.ICache.MissRate())
	fmt.Printf("dcache:            %d accesses, %d misses (%.2f%%)\n",
		tres.DCache.Accesses, tres.DCache.Misses, 100*tres.DCache.MissRate())
	fmt.Printf("fetch stalls:      %d icache, %d window, %d recovery\n",
		tres.FetchStallICache, tres.FetchStallWindow, tres.RecoveryStall)
	if tres.FetchStallControl > 0 {
		fmt.Printf("serialize stalls:  %d cycles (non-speculative fetch)\n", tres.FetchStallControl)
	}
	if tres.FusedPairs > 0 {
		fmt.Printf("fused macro-ops:   %d pairs\n", tres.FusedPairs)
	}
}

// parseIntList parses one comma-separated sweep-axis flag.
func parseIntList(flagName, list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %v", flagName, f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// sweepGrid is the trace-once path: one functional emulation records the
// committed-block trace, then every point of the icache-size x history-length
// grid is timed from it on the engine uarch.Run routes the grid to — the
// unified multi-axis sweep when the grid qualifies, one replay per point
// otherwise.
// An omitted axis is pinned at its base value (-icache, or the default
// predictor), so single-axis sweeps are the degenerate grids.
func sweepGrid(prog *isa.Program, emuCfg emu.Config, sizeList, histList string, icache int, perfectBP bool, quiet *bool) error {
	sizes := []int{icache}
	if sizeList != "" {
		var err error
		if sizes, err = parseIntList("-sweep-icache", sizeList); err != nil {
			return err
		}
	}
	hists := []int{0} // 0 = the default predictor geometry
	if histList != "" {
		var err error
		if hists, err = parseIntList("-sweep-pred", histList); err != nil {
			return err
		}
	}
	tr, err := emu.Record(prog, emuCfg)
	if err != nil {
		return err
	}
	report(prog, tr.EmuResult(), quiet)
	type point struct{ hist, size int }
	var grid []point
	var cfgs []uarch.Config
	for _, hb := range hists {
		for _, sz := range sizes {
			cfg := uarch.Config{
				ICache:    cache.Config{SizeBytes: sz, Ways: 4},
				Predictor: bpred.Config{HistoryBits: hb},
				PerfectBP: perfectBP,
			}
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("history %d, icache %dB: %v", hb, sz, err)
			}
			grid = append(grid, point{hb, sz})
			cfgs = append(cfgs, cfg)
		}
	}
	results, route, err := uarch.Run(context.Background(), tr, cfgs, nil, nil)
	if err != nil {
		return err
	}
	if route.Engine == uarch.EngineSweep {
		fmt.Printf("trace:             %d blocks recorded (%d KB), fused multi-axis sweep over %d configs\n",
			tr.NumEvents(), tr.Footprint()/1024, len(cfgs))
	} else {
		fmt.Printf("trace:             %d blocks recorded (%d KB), replayed %d times (%s)\n",
			tr.NumEvents(), tr.Footprint()/1024, len(cfgs), route.Reason)
	}
	fmt.Printf("%12s %12s %12s %8s %10s %12s\n", "icache", "history", "cycles", "IPC", "icmiss%", "mispredicts")
	for i, r := range results {
		szLabel := fmt.Sprintf("%dB", grid[i].size)
		if grid[i].size == 0 {
			szLabel = "perfect"
		}
		histLabel := "default"
		if grid[i].hist != 0 {
			histLabel = strconv.Itoa(grid[i].hist)
		}
		fmt.Printf("%12s %12s %12d %8.3f %10.2f %12d\n", szLabel, histLabel, r.Cycles, r.IPC(),
			100*r.ICache.MissRate(), r.TrapMispredicts+r.FaultMispredicts+r.Misfetches)
	}
	return nil
}

func report(prog *isa.Program, res *emu.Result, quiet *bool) {
	if !*quiet {
		for _, v := range res.Output {
			fmt.Printf("out: %d\n", v)
		}
	}
	fmt.Printf("isa:               %s\n", prog.Kind)
	fmt.Printf("return value:      %d\n", res.ReturnValue)
	fmt.Printf("ops committed:     %d\n", res.Stats.Ops)
	fmt.Printf("blocks committed:  %d\n", res.Stats.Blocks)
	fmt.Printf("avg block size:    %.2f ops\n", res.Stats.AvgBlockSize())
	fmt.Printf("branches:          %d (%.1f%% taken)\n", res.Stats.Branches,
		100*float64(res.Stats.Taken)/float64(max64(res.Stats.Branches, 1)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsim:", err)
	os.Exit(1)
}
