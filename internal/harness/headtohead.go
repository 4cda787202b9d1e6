package harness

import (
	"fmt"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
)

// programFor returns the bench executable targeting a backend, reusing the
// prepared conventional and block-structured builds and compiling + shaping
// any other backend's executable on demand from the same MiniC source.
func (b *Bench) programFor(be *backend.Backend) (*isa.Program, error) {
	switch be.Kind() {
	case isa.Conventional:
		return b.Conv, nil
	case isa.BlockStructured:
		return b.BSA, nil
	}
	prog, err := compile.Compile(b.Source, b.Profile.Name, compile.DefaultOptions(be.Kind()))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", be.Name(), err)
	}
	if _, err := be.Shape(prog, core.Params{}); err != nil {
		return nil, fmt.Errorf("%s: shape: %w", be.Name(), err)
	}
	return prog, nil
}

// HeadToHead runs every benchmark under every registered ISA backend on the
// Figure 3 machine (large icache, real front end) and renders a four-way
// comparison: IPC per backend plus the average retired block size — the
// paper's fetch-rate proxy (operations delivered per block fetch). conv/bsa
// reproduce the Figure 3 columns exactly and are those very runs, memoized,
// so the head-to-head is nearly free when the figures already ran; the
// BasicBlocker and macro-op-fusion executables are compiled on demand and take
// the direct emulate-and-time path.
func (h *Harness) HeadToHead() (*stats.Table, error) {
	backends := backend.All()
	cols := []string{"Benchmark"}
	for _, be := range backends {
		cols = append(cols, be.Tag()+" IPC")
	}
	for _, be := range backends {
		cols = append(cols, be.Tag()+" Blk")
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Head-to-head: IPC and fetch rate across ISA backends (%s, real front end)",
			PaperICacheLabel(LargeICache)),
		Columns: cols,
		Note:    "Blk = average retired block size (ops per block fetch), the fetch-rate proxy.",
	}
	cfg := baseConfig(LargeICache, false)
	ipcs := make([][]float64, len(h.Benches))
	blks := make([][]float64, len(h.Benches))
	err := h.forEachBench(func(i int) error {
		b := h.Benches[i]
		ipcs[i] = make([]float64, len(backends))
		blks[i] = make([]float64, len(backends))
		for j, be := range backends {
			prog, err := b.programFor(be)
			if err != nil {
				return fmt.Errorf("%s: %w", b.Profile.Name, err)
			}
			h.Opts.progress("run %-8s head-to-head (%s)", b.Profile.Name, be.Name())
			r, err := h.Run(prog, cfg)
			if err != nil {
				return err
			}
			ipcs[i][j], blks[i][j] = r.IPC(), r.AvgBlockSize()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Reduce in benchmark order regardless of worker completion order.
	for i, b := range h.Benches {
		row := []any{b.Profile.Name}
		for _, v := range ipcs[i] {
			row = append(row, v)
		}
		for _, v := range blks[i] {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	meanRow := []any{"MEAN"}
	for j := range backends {
		meanRow = append(meanRow, stats.Mean(column(ipcs, j)))
	}
	for j := range backends {
		meanRow = append(meanRow, stats.Mean(column(blks, j)))
	}
	t.AddRow(meanRow...)
	return t, nil
}

// column extracts one column of a dense row-major matrix.
func column(rows [][]float64, j int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[j]
	}
	return out
}
