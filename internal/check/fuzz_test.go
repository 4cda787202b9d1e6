package check

import (
	"strings"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/lang"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
)

// fuzzParams maps three fuzzed integers onto an enlargement
// parameterization, covering the paper's configuration and off-nominal
// corners (tiny op budgets, disabled faults, wide successor lists).
func fuzzParams(maxOps, maxFaults, maxSuccs int64) core.Params {
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	p := core.Params{
		MaxOps:   int(4 + abs(maxOps)%61),   // 4..64
		MaxSuccs: int(2 + abs(maxSuccs)%15), // 2..16
	}
	switch abs(maxFaults) % 5 {
	case 4:
		p.MaxFaults = -1 // unconditional merging only
	default:
		p.MaxFaults = int(abs(maxFaults) % 5) // 0 (default 2) .. 3
	}
	return p
}

// FuzzPipeline is the end-to-end differential target: a testgen seed is
// compiled for both ISAs, enlarged, and cross-checked across the
// emu-direct, trace-replay and timing paths (see Differential).
func FuzzPipeline(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rep := Differential(testgen.Program(seed), DiffConfig{
			Name:      "fuzz",
			Params:    fuzzParams(seed, seed>>3, seed>>6),
			EmuBudget: 2_000_000,
			Uarch:     uarch.Config{},
		})
		if rep.Failed() {
			t.Fatalf("seed %d: %s", seed, rep)
		}
	})
}

// FuzzEnlarger hammers the enlargement pass with random programs and random
// parameterizations, checking the structural invariants, the provenance
// audit, and functional equivalence (timing paths are skipped to keep the
// iteration rate high — FuzzPipeline covers those).
func FuzzEnlarger(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0), int64(0))
	f.Add(int64(2), int64(3), int64(1), int64(2))
	f.Add(int64(3), int64(60), int64(4), int64(14))
	f.Add(int64(5), int64(7), int64(3), int64(6))
	f.Fuzz(func(t *testing.T, seed, maxOps, maxFaults, maxSuccs int64) {
		rep := Differential(testgen.Program(seed), DiffConfig{
			Name:       "fuzz-enlarge",
			Params:     fuzzParams(maxOps, maxFaults, maxSuccs),
			EmuBudget:  2_000_000,
			SkipTiming: true,
		})
		if rep.Failed() {
			t.Fatalf("seed %d params (%d,%d,%d): %s", seed, maxOps, maxFaults, maxSuccs, rep)
		}
	})
}

// FuzzCompileSource feeds arbitrary source text through everything a
// service request's MiniC source reaches before timing: lang.Parse,
// lang.Check, lowering and code generation for every backend, the backend's
// shaping pass, and a recording at a 10⁵-operation budget. None of it may
// panic or hang. The seeds are generated programs, a loop of blocks without
// operations, and each shape lang.MaxNesting bounds, near the bound. The
// Table-2 sources are left out: they take seconds per execution.
func FuzzCompileSource(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(testgen.Program(seed))
	}
	f.Add(`func main() { while (1) { } return 0; }`)
	const n = lang.MaxNesting - 20
	f.Add("func main() { out(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "); }")
	f.Add("func main() { out(" + strings.Repeat("- ", n) + "1); }")
	f.Add("func main() { out(1" + strings.Repeat("+1", n) + "); }")
	f.Add("func main() { " + strings.Repeat("{ ", n) + "out(1);" + strings.Repeat(" }", n) + " }")
	f.Add("func main() { if (0) { out(0); }" + strings.Repeat(" else if (0) { out(0); }", n) + " else { out(1); } }")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := lang.Parse(src)
		if err != nil {
			return
		}
		info, err := lang.Check(file)
		if err != nil {
			return
		}
		for _, be := range backend.All() {
			mod, err := compile.Lower(file, info, "fuzz")
			if err != nil {
				return
			}
			prog, err := compile.CompileModule(mod, compile.DefaultOptions(be.Kind()))
			if err != nil {
				continue
			}
			if _, err := be.Shape(prog, core.Params{}); err != nil {
				continue
			}
			_, _ = emu.RecordContext(t.Context(), prog, emu.Config{MaxOps: 100_000})
		}
	})
}
