package svc

import (
	"fmt"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// Plan is a fully validated execution plan compiled from a SimRequest: the
// normalized program spec, the emulation budget, and the concrete timing
// configurations to run. Everything downstream (worker, artifact cache,
// engines) consumes the Plan; nothing re-validates.
type Plan struct {
	// Program is the request's program spec with aliases and defaults
	// resolved (canonical ISA name, workload scale filled in). It is the
	// artifact cache key material.
	Program ProgramSpec
	// EmuCfg bounds trace recording.
	EmuCfg emu.Config
	// Configs are the validated timing configurations, in response order.
	Configs []uarch.Config
	// ICacheBytes echoes each config's icache size for the response.
	ICacheBytes []int
	// Predictors echoes each config's predictor point for the response on
	// sweeps that set a predictor axis (nil otherwise).
	Predictors []*PredictorSpec
	// Sweep records whether the request was a SweepSpec (the response
	// renders a sweep table).
	Sweep bool
	// Segments is always zero: schema v2 dropped the segments field.
	//
	// Deprecated: only svcbench's replica still reads it.
	Segments int
	// Timeout is the requested per-job deadline (0 = server default).
	Timeout time.Duration
}

// Kind returns the plan's target ISA kind via the backend registry (the
// plan's ISA is already the canonical backend name).
func (p *Plan) Kind() isa.Kind {
	if be, err := backend.Get(p.Program.ISA); err == nil {
		return be.Kind()
	}
	return isa.Conventional
}

// EnlargeParams returns the core enlargement parameters for block-structured
// plans.
func (p *Plan) EnlargeParams() core.Params {
	if p.Program.Enlarge == nil {
		return core.Params{}
	}
	e := p.Program.Enlarge
	return core.Params{MaxOps: e.MaxOps, MaxFaults: e.MaxFaults, MaxSuccs: e.MaxSuccs}
}

// Canonical names of the two original ISAs, kept for tests and call sites
// that predate the backend registry (normalizeProgram resolves every
// registered name and alias through backend.Get).
const (
	isaConventional    = "conventional"
	isaBlockStructured = "block-structured"
)

// BuildConfig validates a decoded SimRequest and compiles it into a Plan.
// It is the single config-assembly path for the service: every failure
// wraps one of the typed sentinels (ErrBadProgram, ErrBadGeometry,
// ErrBadSweep, ErrBadRequest), so callers classify with errors.Is instead
// of parsing message text.
func BuildConfig(req *SimRequest) (*Plan, error) {
	if req.Version != SchemaVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, req.Version, SchemaVersion)
	}
	prog, err := normalizeProgram(req.Program)
	if err != nil {
		return nil, err
	}
	if req.EmuMaxOps < 0 {
		return nil, fmt.Errorf("%w: negative emulation budget %d", ErrBadRequest, req.EmuMaxOps)
	}
	if req.TimeoutMs < 0 {
		return nil, fmt.Errorf("%w: negative timeout %dms", ErrBadRequest, req.TimeoutMs)
	}
	plan := &Plan{
		Program: prog,
		EmuCfg:  emu.Config{MaxOps: req.EmuMaxOps},
		Timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
	}
	switch {
	case req.Config != nil && req.Sweep != nil:
		return nil, fmt.Errorf("%w: request sets both config and sweep (want one)", ErrBadRequest)
	case req.Config != nil:
		cfg := req.Config.toUarch()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadGeometry, err)
		}
		plan.Configs = []uarch.Config{cfg}
		plan.ICacheBytes = []int{cfg.ICache.SizeBytes}
	case req.Sweep != nil:
		if err := buildSweep(plan, req.Sweep); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: request sets neither config nor sweep", ErrBadRequest)
	}
	return plan, nil
}

// maxSweepConfigs caps the configurations one sweep request may expand
// to. Every sweep lane costs a timing walk of the whole trace, so the cap
// bounds a request's work as the body-size cap bounds its bytes; it sits
// far above the 16-point grids the paper's figures and the benchmarks use.
const maxSweepConfigs = 1024

// buildSweep expands a SweepSpec into the plan's configuration grid: the
// cross product of every set axis over the shared base machine, in
// axis-major order (history outermost, then PHT entries, then BTB sets, then
// icache sizes innermost — the order the unified engine's lanes are
// cheapest to walk in). With only ICacheSizes set this reduces exactly to
// the original single-axis icache sweep: no predictor echo, same configs,
// same order.
func buildSweep(plan *Plan, sw *SweepSpec) error {
	hasPred := len(sw.HistoryBits) > 0 || len(sw.PHTEntries) > 0 || len(sw.BTBSets) > 0
	if len(sw.ICacheSizes) == 0 && !hasPred {
		return fmt.Errorf("%w: no icache sizes", ErrBadSweep)
	}
	// Size the grid before expanding it: a body far under the size cap can
	// list axes whose product runs to millions of points. Each step checks
	// against the cap before multiplying, so the product cannot overflow.
	points := 1
	for _, n := range []int{len(sw.HistoryBits), len(sw.PHTEntries), len(sw.BTBSets), len(sw.ICacheSizes)} {
		if n == 0 {
			continue // an unset axis contributes the base point
		}
		if points > maxSweepConfigs/n {
			return fmt.Errorf("%w: grid of %d×%d×%d×%d history/pht/btb/icache points exceeds %d configurations",
				ErrBadSweep, len(sw.HistoryBits), len(sw.PHTEntries), len(sw.BTBSets), len(sw.ICacheSizes), maxSweepConfigs)
		}
		points *= n
	}
	base := ConfigSpec{}
	if sw.Base != nil {
		base = *sw.Base
	}
	if base.ICache == nil {
		// The bsbench/bsim sweep geometry: 4-way, default lines.
		base.ICache = &CacheSpec{Ways: 4}
	}
	if hasPred && base.PerfectBP {
		return fmt.Errorf("%w: perfect_bp in the base makes every predictor point identical", ErrBadSweep)
	}
	for _, ax := range []struct {
		name string
		vals []int
	}{{"history_bits", sw.HistoryBits}, {"pht_entries", sw.PHTEntries}, {"btb_sets", sw.BTBSets}} {
		for _, v := range ax.vals {
			if v < 0 {
				return fmt.Errorf("%w: negative %s %d", ErrBadSweep, ax.name, v)
			}
		}
	}
	basePred := PredictorSpec{}
	if base.Predictor != nil {
		basePred = *base.Predictor
	}
	// An unset axis contributes the base value as its single point; the
	// sentinel -1 marks "keep base" so an explicit 0 (the paper's default)
	// stays distinguishable.
	axis := func(vals []int) []int {
		if len(vals) == 0 {
			return []int{-1}
		}
		return vals
	}
	sizes := sw.ICacheSizes
	if len(sizes) == 0 {
		sizes = []int{base.ICache.SizeBytes}
	}
	for _, hist := range axis(sw.HistoryBits) {
		for _, pht := range axis(sw.PHTEntries) {
			for _, btb := range axis(sw.BTBSets) {
				for _, sz := range sizes {
					if sz < 0 {
						return fmt.Errorf("%w: negative icache size %d", ErrBadSweep, sz)
					}
					spec := base
					ic := *base.ICache
					ic.SizeBytes = sz
					spec.ICache = &ic
					pred := basePred
					if hist >= 0 {
						pred.HistoryBits = hist
					}
					if pht >= 0 {
						pred.PHTEntries = pht
					}
					if btb >= 0 {
						pred.BTBSets = btb
					}
					p := pred
					if hasPred {
						spec.Predictor = &p
					}
					cfg := spec.toUarch()
					if err := cfg.Validate(); err != nil {
						return fmt.Errorf("%w: point hist=%d pht=%d btb=%d size=%dB: %v", ErrBadSweep, hist, pht, btb, sz, err)
					}
					plan.Configs = append(plan.Configs, cfg)
					plan.ICacheBytes = append(plan.ICacheBytes, sz)
					if hasPred {
						plan.Predictors = append(plan.Predictors, &p)
					}
				}
			}
		}
	}
	plan.Sweep = true
	return nil
}

// normalizeProgram validates a ProgramSpec and resolves aliases/defaults.
func normalizeProgram(p ProgramSpec) (ProgramSpec, error) {
	sources := 0
	if p.Source != "" {
		sources++
	}
	if p.Seed != nil {
		sources++
	}
	if p.Workload != "" {
		sources++
	}
	if sources != 1 {
		return p, fmt.Errorf("%w: exactly one of source, seed, workload must be set (got %d)",
			ErrBadProgram, sources)
	}
	if p.Workload != "" {
		if p.Scale == 0 {
			p.Scale = 1
		}
		if p.Scale < 0 {
			return p, fmt.Errorf("%w: negative workload scale %g", ErrBadProgram, p.Scale)
		}
		if _, ok := workload.ProfileByName(p.Workload, p.Scale); !ok {
			return p, fmt.Errorf("%w: unknown workload %q", ErrBadProgram, p.Workload)
		}
	} else if p.Scale != 0 {
		return p, fmt.Errorf("%w: scale is only valid with a workload program", ErrBadProgram)
	}
	be, err := backend.Get(p.ISA)
	if err != nil {
		// backend.Get's message already lists every registered backend and
		// alias, so the failure is self-describing.
		return p, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	p.ISA = be.Name()
	if p.Enlarge != nil {
		if !be.AcceptsParams() {
			return p, fmt.Errorf("%w: enlargement parameters require the block-structured ISA (backend %q has no parameterized shaping pass)",
				ErrBadProgram, be.Name())
		}
		e := p.Enlarge
		if e.MaxOps < 0 || e.MaxFaults < -1 || e.MaxSuccs < 0 {
			return p, fmt.Errorf("%w: negative enlargement parameter", ErrBadProgram)
		}
	}
	return p, nil
}

// toUarch maps a ConfigSpec onto uarch.Config (zero fields keep the paper's
// defaults, exactly as the CLI tools' flag defaults do).
func (c ConfigSpec) toUarch() uarch.Config {
	cfg := uarch.Config{
		IssueWidth:         c.IssueWidth,
		WindowBlocks:       c.WindowBlocks,
		WindowOps:          c.WindowOps,
		NumFUs:             c.NumFUs,
		FrontEndDepth:      c.FrontEndDepth,
		L2Latency:          c.L2Latency,
		FaultSquashPenalty: c.FaultSquashPenalty,
		PerfectBP:          c.PerfectBP,
	}
	if c.ICache != nil {
		cfg.ICache = cache.Config{SizeBytes: c.ICache.SizeBytes, Ways: c.ICache.Ways, LineBytes: c.ICache.LineBytes}
	}
	if c.DCache != nil {
		cfg.DCache = cache.Config{SizeBytes: c.DCache.SizeBytes, Ways: c.DCache.Ways, LineBytes: c.DCache.LineBytes}
	}
	if c.Predictor != nil {
		cfg.Predictor = bpred.Config{
			HistoryBits: c.Predictor.HistoryBits,
			PHTEntries:  c.Predictor.PHTEntries,
			BTBSets:     c.Predictor.BTBSets,
			BTBWays:     c.Predictor.BTBWays,
			RASDepth:    c.Predictor.RASDepth,
		}
	}
	return cfg
}
