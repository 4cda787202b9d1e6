package harness

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
// for a trace the server has not swept before does. Each cell is the median
// of xsweepRuns timed runs. Fused MB and Memo MB are the bytes one
// memo-less and one served sweep call allocate (the
// runtime.MemStats.TotalAlloc delta across it, median of the runs), which
// stay flat as traces grow. The cross product exercises what makes the
// sweep engine new — one enrichment replay feeds lanes that differ along
// more than one axis — so this table is the perf trajectory record for the
// multi-axis path (bsbench exports it as BENCH_xsweep.json). Like the other
// *Speed experiments it deliberately ignores the harness's result memo:
// every cell is real simulation work.
func (h *Harness) XSweepSpeed() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Cross sweep speed: per-config replay (legacy) vs unified multi-axis sweep",
		Columns: []string{"Benchmark", "ISA", "Configs", "Legacy (ms)", "Fused (ms)", "Memo (ms)", "Speedup", "Fused MB", "Memo MB"},
		Note: fmt.Sprintf("4x4 history-bits x icache-size cross grid at the Figure 3 machine, predecoded tables built before timing; Memo is the sweep served from an outcome memo an untimed sweep filled; "+
			"each cell the median of %d runs; engines verified to return identical results.", xsweepRuns),
	}
	cfgs := xsweepGrid()
	var legacyTotal, fusedTotal, memoTotal time.Duration
	var fusedBytes, memoBytes uint64
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
			label := b.Profile.Name + "/" + side.tag
			pre := uarch.Predecode(side.prog, cfgs[0].EffectiveIssueWidth())
			legacy := make([]*uarch.Result, len(cfgs))
			legacyMs, _, err := medianRun(func() error {
				for i := range cfgs {
					rs, _, err := uarch.Run(context.Background(), tr, cfgs[i:i+1], pre, nil)
					if err != nil {
						return err
					}
					legacy[i] = rs[0]
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			// sweep runs the grid through uarch.Run with memo, requiring the
			// sweep route, the memo use want, and the legacy results.
			sweep := func(memo *uarch.OutcomeMemo, want uarch.MemoUse) error {
				rs, route, err := uarch.Run(context.Background(), tr, cfgs, pre, memo)
				if err != nil {
					return err
				}
				if route.Engine != uarch.EngineSweep {
					return fmt.Errorf("harness: xsweep: %s took %s, not the sweep: %s", label, route.Engine, route.Reason)
				}
				if route.Memo != want {
					return fmt.Errorf("harness: xsweep: %s: memo %s, want %s (%d B of %d B)", label, route.Memo, want, memo.Bytes(), tr.Footprint())
				}
				for i := range legacy {
					if *legacy[i] != *rs[i] {
						return fmt.Errorf("harness: xsweep: %s config %d: memo %s: results diverge:\nlegacy %+v\nsweep  %+v",
							label, i, route.Memo, *legacy[i], *rs[i])
					}
				}
				return nil
			}
			fusedMs, fusedAlloc, err := medianRun(func() error { return sweep(nil, uarch.MemoAbsent) })
			if err != nil {
				return nil, err
			}
			memo := uarch.NewOutcomeMemo(tr)
			if err := sweep(memo, uarch.MemoRecorded); err != nil {
				return nil, err
			}
			memoMs, memoAlloc, err := medianRun(func() error { return sweep(memo, uarch.MemoServed) })
			if err != nil {
				return nil, err
			}
			legacyTotal += legacyMs
			fusedTotal += fusedMs
			memoTotal += memoMs
			fusedBytes += fusedAlloc
			memoBytes += memoAlloc
			t.AddRow(b.Profile.Name, side.tag, len(cfgs),
				legacyMs.Milliseconds(), fusedMs.Milliseconds(), memoMs.Milliseconds(),
				fmt.Sprintf("%.2fx", float64(legacyMs)/float64(fusedMs)), megabytes(fusedAlloc), megabytes(memoAlloc))
		}
	}
	t.AddRow("TOTAL", "", len(cfgs), legacyTotal.Milliseconds(), fusedTotal.Milliseconds(), memoTotal.Milliseconds(),
		fmt.Sprintf("%.2fx", float64(legacyTotal)/float64(fusedTotal)), megabytes(fusedBytes), megabytes(memoBytes))
	return t, nil
}

// xsweepRuns is how many times XSweepSpeed times each cell.
const xsweepRuns = 3

// medianRun runs fn xsweepRuns times and returns the median of its wall
// times and of the bytes each run allocated.
func medianRun(fn func() error) (time.Duration, uint64, error) {
	var times []time.Duration
	var allocs []uint64
	var before, after runtime.MemStats
	for range xsweepRuns {
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		times = append(times, elapsed)
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(times)
	slices.Sort(allocs)
	return times[len(times)/2], allocs[len(allocs)/2], nil
}

// megabytes renders a byte count in MB (2^20 bytes) to two decimals.
func megabytes(n uint64) string { return fmt.Sprintf("%.2f", float64(n)/(1<<20)) }
