package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// xsweepGrid is the 4x4 history-length x icache-size cross product the
// multi-axis sweep engine is benchmarked on: sixteen configurations covering
// every combination of two orthogonal sweep axes.
func xsweepGrid() []uarch.Config {
	var cfgs []uarch.Config
	for _, hb := range []int{4, 8, 12, 16} {
		for sz := 4 * 1024; sz <= 32*1024; sz *= 2 {
			cfg := baseConfig(sz, false)
			cfg.Predictor.HistoryBits = hb
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// XSweepSpeed times the 4x4 history x icache cross grid three ways: one
// independent replay per configuration, the multi-axis sweep engine, and
// the sweep served from an outcome memo that an untimed sweep filled, over
// every benchmark and both ISAs, verifying on the way that all three return
// identical results. Each side runs what a warm bsimd request runs:
// uarch.Run on the calling goroutine, with the program's Predecode built
// once, outside the timed region; Fused runs without a memo, as a request
// for a trace the server has not swept before does. Fused MB is the bytes
// one memo-less sweep call allocates (the runtime.MemStats.TotalAlloc delta
// across it), which stays flat as traces grow. The cross product exercises
// what makes the sweep engine new — one enrichment replay feeds lanes that
// differ along more than one axis — so this table is the perf trajectory
// record for the multi-axis path (bsbench exports it as BENCH_xsweep.json).
// Like the other *Speed experiments it deliberately ignores the harness's
// result memo: every cell is real simulation work.
func (h *Harness) XSweepSpeed() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Cross sweep speed: per-config replay (legacy) vs unified multi-axis sweep",
		Columns: []string{"Benchmark", "ISA", "Configs", "Legacy (ms)", "Fused (ms)", "Memo (ms)", "Speedup", "Fused MB"},
		Note:    "4x4 history-bits x icache-size cross grid at the Figure 3 machine, predecoded tables built before timing; Memo is the sweep served from an outcome memo an untimed sweep filled; engines verified to return identical results.",
	}
	cfgs := xsweepGrid()
	var legacyTotal, fusedTotal, memoTotal time.Duration
	var fusedBytes uint64
	var before, after runtime.MemStats
	for _, b := range h.Benches {
		for _, side := range []struct {
			tag  string
			prog *isa.Program
		}{{"conv", b.Conv}, {"bsa", b.BSA}} {
			tr, traced, err := h.Trace(side.prog)
			if err != nil {
				return nil, err
			}
			if !traced {
				return nil, fmt.Errorf("harness: xsweep: %s/%s has no trace slot", b.Profile.Name, side.tag)
			}
			h.Opts.progress("xsweep %-8s %s", b.Profile.Name, side.tag)
			pre := uarch.Predecode(side.prog, cfgs[0].EffectiveIssueWidth())
			legacy := make([]*uarch.Result, len(cfgs))
			start := time.Now()
			for i := range cfgs {
				rs, _, err := uarch.Run(context.Background(), tr, cfgs[i:i+1], pre, nil)
				if err != nil {
					return nil, err
				}
				legacy[i] = rs[0]
			}
			legacyMs := time.Since(start)
			runtime.ReadMemStats(&before)
			start = time.Now()
			fused, route, err := uarch.Run(context.Background(), tr, cfgs, pre, nil)
			if err != nil {
				return nil, err
			}
			fusedMs := time.Since(start)
			runtime.ReadMemStats(&after)
			if route.Engine != uarch.EngineSweep {
				return nil, fmt.Errorf("harness: xsweep: %s/%s took %s, not the sweep: %s",
					b.Profile.Name, side.tag, route.Engine, route.Reason)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			memo := uarch.NewOutcomeMemo(tr)
			if _, _, err := uarch.Run(context.Background(), tr, cfgs, pre, memo); err != nil {
				return nil, err
			}
			start = time.Now()
			served, route, err := uarch.Run(context.Background(), tr, cfgs, pre, memo)
			if err != nil {
				return nil, err
			}
			memoMs := time.Since(start)
			if route.Memo != uarch.MemoServed {
				return nil, fmt.Errorf("harness: xsweep: %s/%s: the memo did not serve the sweep (%s, %d B of %d B)",
					b.Profile.Name, side.tag, route.Memo, memo.Bytes(), tr.Footprint())
			}
			for i := range legacy {
				if *legacy[i] != *fused[i] || *legacy[i] != *served[i] {
					return nil, fmt.Errorf("harness: xsweep: %s/%s config %d: results diverge:\nlegacy %+v\nfused  %+v\nmemo   %+v",
						b.Profile.Name, side.tag, i, *legacy[i], *fused[i], *served[i])
				}
			}
			legacyTotal += legacyMs
			fusedTotal += fusedMs
			memoTotal += memoMs
			fusedBytes += alloc
			t.AddRow(b.Profile.Name, side.tag, len(cfgs),
				legacyMs.Milliseconds(), fusedMs.Milliseconds(), memoMs.Milliseconds(),
				fmt.Sprintf("%.2fx", float64(legacyMs)/float64(fusedMs)), megabytes(alloc))
		}
	}
	t.AddRow("TOTAL", "", len(cfgs), legacyTotal.Milliseconds(), fusedTotal.Milliseconds(), memoTotal.Milliseconds(),
		fmt.Sprintf("%.2fx", float64(legacyTotal)/float64(fusedTotal)), megabytes(fusedBytes))
	return t, nil
}

// megabytes renders a byte count in MB (2^20 bytes) to two decimals.
func megabytes(n uint64) string { return fmt.Sprintf("%.2f", float64(n)/(1<<20)) }
