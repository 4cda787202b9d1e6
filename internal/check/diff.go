package check

import (
	"fmt"
	"strings"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/uarch"
)

// DiffConfig parameterizes one differential run.
type DiffConfig struct {
	// Name labels the program in diagnostics.
	Name string
	// Params configures block enlargement for the block-structured side.
	Params core.Params
	// EmuBudget bounds committed operations per emulation (0 = emu default).
	EmuBudget int64
	// Uarch configures the timing cross-check; the zero value is the
	// paper's machine. Ignored when SkipTiming is set.
	Uarch uarch.Config
	// SkipTiming skips the timing-model stages (direct-vs-replay cycle
	// equality, window monitoring), leaving the cheaper functional oracle.
	SkipTiming bool
	// Limits overrides the structural bounds used for auditing; nil means
	// ParamLimits(Params). cmd/bsfuzz's -inject rule1 mode uses it to audit
	// an over-budget enlargement against the paper's bounds.
	Limits *Limits
}

// Divergence is one oracle failure: a stage of the pipeline disagreeing with
// another stage or violating an invariant.
type Divergence struct {
	Stage  string // e.g. "compile-conv", "invariant-bsa", "output", "replay-cycles"
	Detail string
}

func (d Divergence) String() string { return d.Stage + ": " + d.Detail }

// Report is the outcome of one differential run.
type Report struct {
	Name        string
	Divergences []Divergence

	// Conv and BSA are the functional results of the two original
	// executables (nil if the corresponding stage never ran).
	Conv, BSA *emu.Result
	// Results holds every backend's functional result keyed by short tag
	// (conv, bsa, bb, fused); Conv and BSA alias two of its entries.
	Results map[string]*emu.Result
	// EnlargeStats reports what the enlargement pass did.
	EnlargeStats *core.Stats
	// ReshapeStats reports what the BasicBlocker reshape pass did.
	ReshapeStats *core.Stats
}

// Failed reports whether any stage diverged.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

func (r *Report) String() string {
	if !r.Failed() {
		return fmt.Sprintf("%s: ok", r.Name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d divergence(s)", r.Name, len(r.Divergences))
	for _, d := range r.Divergences {
		sb.WriteString("\n  ")
		sb.WriteString(d.String())
	}
	return sb.String()
}

func (r *Report) failf(stage, format string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{Stage: stage, Detail: fmt.Sprintf(format, args...)})
}

// diffTag is the short stage-name tag for a backend. The historical conv/bsa
// stage names are load-bearing — cmd/bsfuzz classifies divergences by stage
// prefix.
func diffTag(be backend.Backend) string { return backend.Tag(be) }

// Differential compiles one MiniC source for every registered backend and
// cross-checks every execution path the repo has:
//
//  1. per backend: compile → shaping pass (the enlarger for bsa, the linear
//     reshaper for bb, nothing for conv/fused) → structural + provenance
//     invariants → emulate (recording a trace);
//  2. every backend's architectural results (out() stream, main's return
//     value) must match the conventional reference — four executables, one
//     behavior;
//  3. for each backend, the timing model must retire the same
//     cycle/op/block counts whether driven online by the emulator or by
//     replaying the recorded trace, with window-occupancy invariants
//     monitored throughout.
//
// All failures are reported as divergences on the Report; the run never
// panics on malformed generated programs.
func Differential(src string, cfg DiffConfig) *Report {
	rep := &Report{Name: cfg.Name, Results: map[string]*emu.Result{}}
	if rep.Name == "" {
		rep.Name = "program"
	}
	emuCfg := emu.Config{MaxOps: cfg.EmuBudget}
	lim := ParamLimits(cfg.Params)
	if cfg.Limits != nil {
		lim = *cfg.Limits
	}

	for _, be := range backend.All() {
		tag := diffTag(be)
		prog, err := compile.Compile(src, rep.Name, compile.DefaultOptions(be.Kind()))
		if err != nil {
			rep.failf("compile-"+tag, "%v", err)
			return rep
		}
		if err := Program(prog, lim); err != nil {
			stage := "invariant-" + tag
			if be.Kind() == isa.BlockStructured {
				stage += "-base" // pre-enlargement audit keeps its old name
			}
			rep.failf(stage, "%v", err)
		}

		switch be.Kind() {
		case isa.BlockStructured:
			params := cfg.Params
			if params.Static && params.Profile == nil {
				prof, err := core.CollectProfile(prog, cfg.EmuBudget)
				if err != nil {
					rep.failf("profile-bsa", "%v", err)
					return rep
				}
				params.Profile = prof
			}
			stats, err := be.Shape(prog, params)
			if err != nil {
				rep.failf("enlarge", "%v", err)
				return rep
			}
			rep.EnlargeStats = stats
			if err := Program(prog, lim); err != nil {
				rep.failf("invariant-bsa", "%v", err)
			}
			if err := Enlargement(prog, stats.Provenance, lim); err != nil {
				rep.failf("provenance", "%v", err)
			}
			prog.Layout()
		case isa.BasicBlocker:
			stats, err := be.Shape(prog, core.Params{MaxOps: lim.MaxOps})
			if err != nil {
				rep.failf("reshape", "%v", err)
				return rep
			}
			rep.ReshapeStats = stats
			if err := Reshape(prog, stats.Provenance, lim); err != nil {
				rep.failf("provenance-bb", "%v", err)
			}
			prog.Layout()
		}

		trace, err := emu.Record(prog, emuCfg)
		if err != nil {
			rep.failf("emu-"+tag, "%v", err)
			return rep
		}
		res := trace.EmuResult()
		rep.Results[tag] = res
		switch be.Kind() {
		case isa.Conventional:
			rep.Conv = res
		case isa.BlockStructured:
			rep.BSA = res
		}

		if rep.Conv != nil && res != rep.Conv {
			compareOutputs(rep, tag, rep.Conv, res)
		}
		if !cfg.SkipTiming {
			crossCheckTiming(rep, tag, prog, trace, cfg.Uarch, emuCfg)
		}
	}
	return rep
}

// compareOutputs asserts a backend computed the same thing as the
// conventional reference.
func compareOutputs(rep *Report, tag string, conv, got *emu.Result) {
	if conv.ReturnValue != got.ReturnValue {
		rep.failf("output", "return value: conv %d, %s %d", conv.ReturnValue, tag, got.ReturnValue)
	}
	if len(conv.Output) != len(got.Output) {
		rep.failf("output", "out() count: conv %d, %s %d", len(conv.Output), tag, len(got.Output))
		return
	}
	for i := range conv.Output {
		if conv.Output[i] != got.Output[i] {
			rep.failf("output", "out()[%d]: conv %d, %s %d", i, conv.Output[i], tag, got.Output[i])
			return
		}
	}
}

// crossCheckTiming runs the timing model twice — online behind the emulator
// and offline from the recorded trace (under the window monitor) — and
// asserts both agree with each other and with the committed stream.
func crossCheckTiming(rep *Report, tag string, prog *isa.Program, trace *emu.Trace, ucfg uarch.Config, emuCfg emu.Config) {
	direct, _, err := uarch.RunProgram(prog, ucfg, emuCfg)
	if err != nil {
		rep.failf("uarch-"+tag, "%v", err)
		return
	}
	sim, err := uarch.New(prog, ucfg)
	if err != nil {
		rep.failf("replay-"+tag, "%v", err)
		return
	}
	mon, err := Monitor(sim)
	if err != nil {
		rep.failf("latency", "%v", err)
		return
	}
	if err := trace.Replay(mon.OnBlock); err != nil {
		rep.failf("replay-"+tag, "%v", err)
		return
	}
	replayed := sim.Finish()
	if direct.Cycles != replayed.Cycles {
		rep.failf("replay-"+tag, "cycles: direct %d, trace-replay %d", direct.Cycles, replayed.Cycles)
	}
	if direct.Ops != replayed.Ops || direct.Blocks != replayed.Blocks {
		rep.failf("replay-"+tag, "retired: direct %d ops/%d blocks, trace-replay %d ops/%d blocks",
			direct.Ops, direct.Blocks, replayed.Ops, replayed.Blocks)
	}
	emuStats := trace.EmuResult().Stats
	if replayed.Ops != emuStats.Ops || replayed.Blocks != emuStats.Blocks {
		rep.failf("retire-"+tag, "timing model retired %d ops/%d blocks, emulator committed %d/%d",
			replayed.Ops, replayed.Blocks, emuStats.Ops, emuStats.Blocks)
	}
}
