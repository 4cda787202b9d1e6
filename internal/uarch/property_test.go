package uarch

import (
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// figureConfigs mirrors the harness's experiment grid (scaled down to the
// test programs' footprint): the Figure 3/4 large-icache points with real
// and perfect prediction, the perfect-icache reference, the Figure 6/7
// icache sweep, and the §3 rival fetch mechanisms.
func figureConfigs() []Config {
	cfgs := []Config{
		{ICache: cache.Config{SizeBytes: 8192, Ways: 4}},                  // Figure 3
		{ICache: cache.Config{SizeBytes: 8192, Ways: 4}, PerfectBP: true}, // Figure 4
		{}, // perfect icache reference
	}
	for _, sz := range []int{1024, 2048, 4096} { // Figures 6/7 sweep
		cfgs = append(cfgs, Config{ICache: cache.Config{SizeBytes: sz, Ways: 4}})
	}
	cfgs = append(cfgs,
		Config{ICache: cache.Config{SizeBytes: 8192, Ways: 4}, TraceCache: TraceCacheConfig{Sets: 64, Ways: 4}},
		Config{ICache: cache.Config{SizeBytes: 8192, Ways: 4}, MultiBlock: MultiBlockConfig{Blocks: 4}},
		Config{ICache: cache.Config{SizeBytes: 8192, Ways: 4}, Predictor: bpred.Config{HistoryBits: 4}},
	)
	return cfgs
}

// TestReplayMatchesDirectSimulation is the trace-equivalence property: for
// every backend and every figure configuration, replaying a recorded
// committed-block trace produces a Result bitwise-identical to the
// execution-driven RunProgram path, and SimulateMany agrees with standalone
// replays.
func TestReplayMatchesDirectSimulation(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	cfgs := figureConfigs()
	for seed := int64(3000); seed < 3000+int64(seeds); seed++ {
		for _, be := range backend.All() {
			kind := be.Kind()
			prog := policyProgram(t, seed, kind)
			emuCfg := emu.Config{MaxOps: 80_000_000}
			tr, err := emu.Record(prog, emuCfg)
			if err != nil {
				t.Fatalf("seed %d %s: record: %v", seed, kind, err)
			}
			many, err := SimulateMany(tr, cfgs, 0)
			if err != nil {
				t.Fatalf("seed %d %s: simulate many: %v", seed, kind, err)
			}
			for ci, cfg := range cfgs {
				direct, _, err := RunProgram(prog, cfg, emuCfg)
				if err != nil {
					t.Fatalf("seed %d %s cfg %d: direct: %v", seed, kind, ci, err)
				}
				replayed, err := ReplayTrace(tr, cfg)
				if err != nil {
					t.Fatalf("seed %d %s cfg %d: replay: %v", seed, kind, ci, err)
				}
				if *replayed != *direct {
					t.Errorf("seed %d %s cfg %d: replayed result differs from direct simulation\nreplay: %+v\ndirect: %+v",
						seed, kind, ci, *replayed, *direct)
				}
				if *many[ci] != *direct {
					t.Errorf("seed %d %s cfg %d: SimulateMany result differs from direct simulation",
						seed, kind, ci)
				}
			}
		}
	}
}

// TestTimingInvariantsOnRandomPrograms checks machine-level invariants of
// the timing model over generated programs for both ISAs:
//
//   - retired ops/blocks match the functional emulator exactly;
//   - cycles >= blocks (one block retires per cycle at most);
//   - cycles >= ceil(ops/issue width) (machine width bound);
//   - a perfect frontend (perfect BP + perfect icache) is never slower;
//   - results are deterministic.
func TestTimingInvariantsOnRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(2000); seed < 2000+int64(seeds); seed++ {
		src := testgen.Program(seed)
		for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
			prog, err := compile.Compile(src, "prop", compile.DefaultOptions(kind))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if kind == isa.BlockStructured {
				if _, err := core.Enlarge(prog, core.Params{}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			cfg := Config{ICache: cache.Config{SizeBytes: 2048}}
			res, eres, err := RunProgram(prog, cfg, emu.Config{MaxOps: 80_000_000})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			if res.Ops != eres.Stats.Ops || res.Blocks != eres.Stats.Blocks {
				t.Fatalf("seed %d %s: timing retired %d/%d, emulator %d/%d",
					seed, kind, res.Ops, res.Blocks, eres.Stats.Ops, eres.Stats.Blocks)
			}
			if res.Cycles < res.Blocks {
				t.Errorf("seed %d %s: %d cycles < %d blocks", seed, kind, res.Cycles, res.Blocks)
			}
			if res.Cycles*16 < res.Ops {
				t.Errorf("seed %d %s: width bound violated: %d cycles, %d ops",
					seed, kind, res.Cycles, res.Ops)
			}
			perfect, _, err := RunProgram(prog, Config{PerfectBP: true}, emu.Config{MaxOps: 80_000_000})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			if perfect.Cycles > res.Cycles {
				t.Errorf("seed %d %s: perfect frontend slower (%d > %d)",
					seed, kind, perfect.Cycles, res.Cycles)
			}
			again, _, err := RunProgram(prog, cfg, emu.Config{MaxOps: 80_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if again.Cycles != res.Cycles {
				t.Errorf("seed %d %s: nondeterministic (%d vs %d)", seed, kind, again.Cycles, res.Cycles)
			}
		}
	}
}
