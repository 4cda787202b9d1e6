package harness

import (
	"fmt"

	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// Summary reports per-benchmark headline metrics at the Figure-3
// configuration for both ISAs: the machine-readable companion to the
// figures (bsbench -json exports it as BENCH_summary.json).
func (h *Harness) Summary() (*stats.Table, error) {
	conv, bsa, err := h.pairResults(LargeICache, false)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: "Summary: per-benchmark metrics (Figure 3 configuration)",
		Columns: []string{"Benchmark", "ISA", "Cycles", "Ops", "IPC",
			"ICacheMiss%", "DCacheMiss%", "Mispredicts"},
	}
	for i, b := range h.Benches {
		for _, side := range []struct {
			tag string
			r   *uarch.Result
		}{{"conv", conv[i]}, {"bsa", bsa[i]}} {
			t.AddRow(b.Profile.Name, side.tag, side.r.Cycles, side.r.Ops, side.r.IPC(),
				fmt.Sprintf("%.3f", 100*side.r.ICache.MissRate()),
				fmt.Sprintf("%.3f", 100*side.r.DCache.MissRate()),
				side.r.Mispredicts())
		}
	}
	return t, nil
}
