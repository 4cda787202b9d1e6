package harness

import (
	"fmt"

	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// PredictorSensitivity renders the predictor-sensitivity table: mean cycles
// and mispredicts per 1000 retired operations for both ISAs over a history ×
// PHT grid at the Figure 3 machine. Each benchmark executable's whole grid
// is one runMany batch, which routes through the fused predictor-sweep
// engine (bsbench experiment `predsens`).
func (h *Harness) PredictorSensitivity() (*stats.Table, error) {
	grid := predSensGrid()
	t := &stats.Table{
		Title: "Predictor sensitivity: history length x PHT size (Figure 3 machine)",
		Columns: []string{"History Bits", "PHT Entries", "Mean Conv Cycles", "Conv MP/1Kops",
			"Mean BSA Cycles", "BSA MP/1Kops"},
		Note: "MP/1Kops counts trap+fault+misfetch mispredictions per 1000 retired operations.",
	}
	convRes := make([][]*uarch.Result, len(h.Benches))
	bsaRes := make([][]*uarch.Result, len(h.Benches))
	err := h.forEachBench(func(i int) error {
		b := h.Benches[i]
		for _, side := range []struct {
			tag  string
			prog *isa.Program
			out  *[]*uarch.Result
		}{{"conv", b.Conv, &convRes[i]}, {"bsa", b.BSA, &bsaRes[i]}} {
			h.Opts.progress("predsens %-8s %s", b.Profile.Name, side.tag)
			res, err := h.runMany(side.prog, grid)
			if err != nil {
				return err
			}
			*side.out = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Reduce means in benchmark order so the table is identical at every
	// worker count.
	nb := float64(len(h.Benches))
	for j, cfg := range grid {
		var cc, cm, bc, bm float64
		for i := range h.Benches {
			c, bb := convRes[i][j], bsaRes[i][j]
			cc += float64(c.Cycles) / nb
			cm += 1000 * float64(c.Mispredicts()) / float64(c.Ops) / nb
			bc += float64(bb.Cycles) / nb
			bm += 1000 * float64(bb.Mispredicts()) / float64(bb.Ops) / nb
		}
		t.AddRow(cfg.Predictor.HistoryBits, cfg.Predictor.PHTEntries, int64(cc), fmt.Sprintf("%.2f", cm), int64(bc), fmt.Sprintf("%.2f", bm))
	}
	return t, nil
}

// predSensGrid is the predictor-sensitivity batch: history length × PHT
// size at the Figure 3 machine.
func predSensGrid() []uarch.Config {
	var cfgs []uarch.Config
	for _, hist := range []int{4, 8, 16} {
		for _, pht := range []int{4096, 32768} {
			cfg := baseConfig(LargeICache, false)
			cfg.Predictor.HistoryBits = hist
			cfg.Predictor.PHTEntries = pht
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}
