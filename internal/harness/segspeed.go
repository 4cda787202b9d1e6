package harness

import (
	"fmt"
	"runtime"
	"time"

	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// segSpeedWorkers is the worker-count ladder SegSpeed measures. 1 exercises
// the documented sequential fallback; the rest scale with whatever cores the
// host actually has.
var segSpeedWorkers = []int{1, 2, 4, 8}

// SegSpeed times single-configuration replay both ways — the sequential
// engine (uarch.ReplayTrace) versus the segment-parallel engine
// (uarch.ReplayTraceSegmented) at 1/2/4/8 workers — over every benchmark and
// both ISAs at the Figure-3 machine, verifying on the way that every
// segmented result is field-for-field identical to the sequential one. Like
// XSweepSpeed it bypasses the result memo: every cell is real simulation
// work, so the table is the perf trajectory record for the segmented path.
//
// The speedup ceiling is the host's core count: the segmented engine adds a
// warm checkpoint pass (~25-30% of a sequential replay) plus a boundary
// stitch, so on a single-core host it measures as pure overhead (that is the
// honest number — the engine exists for multi-core hosts, and the table's
// note records how many cores this run actually had).
func (h *Harness) SegSpeed() (*stats.Table, error) {
	cols := []string{"Benchmark", "ISA", "Events", "Seq (ms)"}
	for _, w := range segSpeedWorkers {
		cols = append(cols, fmt.Sprintf("%dw (ms)", w))
	}
	t := &stats.Table{
		Title:   "Segment-parallel replay: sequential vs segmented by worker count",
		Columns: cols,
		Note: fmt.Sprintf("Per-cell: wall ms (speedup vs sequential). Host has %d CPU core(s); "+
			"speedup is bounded by cores, and 1 worker is the documented sequential fallback. "+
			"Every segmented result verified field-for-field identical to the sequential engine.",
			runtime.NumCPU()),
	}
	cfg := baseConfig(LargeICache, false)
	seqTotal := time.Duration(0)
	segTotal := make([]time.Duration, len(segSpeedWorkers))
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
				return nil, fmt.Errorf("harness: segspeed: %s/%s has no trace slot", b.Profile.Name, side.tag)
			}
			h.Opts.progress("segspeed %-8s %s", b.Profile.Name, side.tag)
			start := time.Now()
			want, err := uarch.ReplayTrace(tr, cfg)
			if err != nil {
				return nil, err
			}
			seqMs := time.Since(start)
			seqTotal += seqMs
			row := []any{b.Profile.Name, side.tag, tr.NumEvents(), seqMs.Milliseconds()}
			for wi, workers := range segSpeedWorkers {
				start = time.Now()
				got, err := uarch.ReplayTraceSegmented(tr, cfg, uarch.SegmentOptions{Workers: workers})
				if err != nil {
					return nil, err
				}
				segMs := time.Since(start)
				if *got != *want {
					return nil, fmt.Errorf("harness: segspeed: %s/%s workers=%d: segmented result diverges:\nsegmented:  %+v\nsequential: %+v",
						b.Profile.Name, side.tag, workers, *got, *want)
				}
				segTotal[wi] += segMs
				row = append(row, segCell(seqMs, segMs))
			}
			t.AddRow(row...)
		}
	}
	totalRow := []any{"TOTAL", "", "", seqTotal.Milliseconds()}
	for wi := range segSpeedWorkers {
		totalRow = append(totalRow, segCell(seqTotal, segTotal[wi]))
	}
	t.AddRow(totalRow...)
	return t, nil
}

// segCell renders one segmented measurement as "ms (speedup-x)".
func segCell(seq, seg time.Duration) string {
	return fmt.Sprintf("%d (%.2fx)", seg.Milliseconds(), float64(seq)/float64(seg))
}
