package svc

import (
	"errors"
	"fmt"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// cachedTrace is the trace artifact cached across requests: the trace itself
// plus, when it was loaded from the persistent store, the file's aux sections
// (the program image, and encoded predecoded-op-tables, one per issue width a
// previous process attached, tagged by width). Immutable after construction
// — the predecode write-through updates the file, not this struct, so
// readers never race.
//
// A store-served trace (mapped != nil) aliases read-only mmapped pages; the
// refcounted hooks forward to the mapping so the artifact cache and every
// in-flight job each hold a reference, and the file is unmapped only after
// the last of them releases.
type cachedTrace struct {
	tr     *emu.Trace
	aux    []emu.AuxSection
	mapped *emu.TraceMapping // non-nil when served from the store
}

func (ct *cachedTrace) tryRef() bool { return ct.mapped == nil || ct.mapped.Acquire() }

func (ct *cachedTrace) unref() {
	if ct.mapped != nil {
		ct.mapped.Release()
	}
}

// zeroCopy reports whether the trace replays straight off mmapped pages.
func (ct *cachedTrace) zeroCopy() bool { return ct.mapped != nil && ct.mapped.ZeroCopy() }

// execute runs one job end to end: program (cached) → trace (cached) →
// timing engine, on the route uarch.Run takes for the CLI tools too, so
// service answers are field-for-field identical to CLI answers. The returned error (also recorded in the envelope's Error
// field) classifies the failure for the HTTP layer.
func (s *Server) execute(j *job) (*SimResponse, error) {
	start := time.Now()
	plan := j.plan
	resp := &SimResponse{Version: SchemaVersion, ID: j.req.ID, Experiment: "sim"}
	if plan.Sweep {
		resp.Experiment = "sweep"
	}
	if plan.Program.Workload != "" {
		resp.Scale = plan.Program.Scale
	}

	fail := func(err error) (*SimResponse, error) {
		// The code is stamped beside the error text, so the envelope
		// classifies itself; the HTTP layer only picks the status.
		resp.Error = err.Error()
		resp.ErrorCode = ErrorCode(err)
		resp.WallMs = time.Since(start).Milliseconds()
		s.cfg.Logger.Warn("job failed",
			"job", j.id, "id", j.req.ID, "experiment", resp.Experiment,
			"wall_ms", resp.WallMs, "err", err.Error())
		return resp, err
	}

	if err := j.ctx.Err(); err != nil {
		return fail(err)
	}

	// Program artifact: compile (and enlarge) once per distinct spec. With a
	// store, a miss first opens the trace file, which carries the shaped
	// program; decoding it costs a fraction of building it (DESIGN.md §15).
	// The mapping is handed on to the trace step, so a job makes one store
	// lookup, and compiles only when the store misses too.
	progKey := programKey(plan.Program)
	tKey := traceKey(progKey, plan.EmuCfg.MaxOps)
	var stored *emu.TraceMapping // opened by the program step for the trace step
	pv, progHit, err := s.programs.do(progKey, func() (any, error) {
		if st := s.cfg.Store; st != nil {
			if mt, ok := st.LoadTraceMapped(tKey, nil, plan.EmuCfg); ok {
				stored = mt
				return mt.Trace().Program(), nil
			}
		}
		t0 := time.Now()
		prog, err := buildProgram(plan)
		s.metrics.observeStage(stageCompile, time.Since(t0))
		return prog, err
	})
	if err != nil {
		return fail(err)
	}
	prog := pv.(*isa.Program)

	// Trace artifact: record the committed stream once per program+budget. A
	// configured store interposes on the miss path: the file the program
	// step opened, or else, when the program came from the cache, a
	// load-and-validate from disk (a hit skips the recording entirely); a
	// fresh recording is written through so the next process starts warm.
	// Store failures only ever degrade to a re-record — they never fail the
	// job. The recording runs under this job's context; a job waiting on it
	// whose recorder is canceled records again under its own
	// (artifactCache.do).
	tv, traceHit, err := s.traces.do(tKey, func() (any, error) {
		mt := stored
		stored = nil
		if st := s.cfg.Store; st != nil && mt == nil && progHit {
			mt, _ = st.LoadTraceMapped(tKey, prog, plan.EmuCfg)
		}
		if mt != nil {
			return &cachedTrace{tr: mt.Trace(), aux: mt.Aux(), mapped: mt}, nil
		}
		t0 := time.Now()
		tr, err := emu.RecordContext(j.ctx, prog, plan.EmuCfg)
		s.metrics.observeStage(stageTrace, time.Since(t0))
		if errors.Is(err, emu.ErrBudget) {
			// The program came from the request, so running past the
			// budget is a client error.
			return nil, fmt.Errorf("%w: %w", ErrBadProgram, err)
		}
		if err != nil {
			return nil, err
		}
		s.metrics.traceRecords.Add(1)
		if st := s.cfg.Store; st != nil {
			if serr := st.SaveTrace(tKey, tr, nil); serr != nil {
				s.cfg.Logger.Warn("trace store write failed", "key", tKey, "err", serr.Error())
			}
		}
		return &cachedTrace{tr: tr}, nil
	})
	if stored != nil {
		// Another job put the trace in the cache while this one decoded the
		// program: drop the second mapping.
		stored.Release()
	}
	if err != nil {
		return fail(err)
	}
	ct := tv.(*cachedTrace)
	// The do() return handed this job its own reference on the mapped trace;
	// hold it until the timing engines below have fully drained, so cache
	// turnover or store eviction can never unmap pages mid-replay.
	defer ct.unref()
	tr := ct.tr

	// Predecode artifact: the sweep engine flattens the program into
	// per-lane op tables before walking the trace; share that flattening
	// across requests (it depends only on program + issue width). With a
	// store, the trace file carries one aux section per issue width across
	// restarts: decode the matching section when present, and attach a
	// freshly flattened table for this width otherwise (sections for other
	// widths are preserved). Only the sweep route asks for it.
	route := uarch.RouteFor(plan.Configs)
	stage := stageReplay
	var pre *uarch.Predecoded
	preHit := false
	if route.Engine == uarch.EngineSweep {
		stage = stageSweep
		iw := plan.Configs[0].EffectiveIssueWidth()
		prv, hit, perr := s.predecodes.do(predecodeKey(progKey, iw), func() (any, error) {
			for _, sec := range ct.aux {
				if sec.Tag != uint64(iw) {
					continue
				}
				if dec, derr := uarch.DecodePredecoded(sec.Data, prog); derr == nil && dec.IssueWidth() == iw {
					return dec, nil
				}
				break // stale payload under this width's tag: reflatten and overwrite it
			}
			fresh := uarch.Predecode(prog, iw)
			if st := s.cfg.Store; st != nil {
				sec := emu.AuxSection{Tag: uint64(iw), Data: fresh.EncodeBytes()}
				if serr := st.AttachAux(tKey, tr, sec); serr != nil {
					s.cfg.Logger.Warn("trace store aux write failed", "key", tKey, "err", serr.Error())
				}
			}
			return fresh, nil
		})
		if perr == nil {
			pre, preHit = prv.(*uarch.Predecoded), hit
		}
	}
	resp.Engine = string(route.Engine)
	resp.ArtifactCache = &ArtifactHits{
		Program: progHit, Trace: traceHit, Predecode: preHit,
		Store: ct.mapped != nil, Mmap: ct.zeroCopy(),
	}

	t0 := time.Now()
	results, _, err := uarch.Run(j.ctx, tr, plan.Configs, pre)
	engineWall := time.Since(t0)
	s.metrics.observeStage(stage, engineWall)
	if err != nil {
		return fail(err)
	}

	resp.Results = make([]SimResult, len(results))
	for i, r := range results {
		resp.Results[i] = ResultOf(plan.ICacheBytes[i], r)
		if plan.Predictors != nil {
			resp.Results[i].Predictor = plan.Predictors[i]
		}
	}
	resp.Table = renderTable(plan, resp.Results)
	resp.WallMs = time.Since(start).Milliseconds()
	s.cfg.Logger.Info("job done",
		"job", j.id, "id", j.req.ID, "experiment", resp.Experiment,
		"engine", resp.Engine, "engine_reason", route.Reason,
		"configs", len(plan.Configs), "events", tr.NumEvents(),
		"program_cache_hit", progHit, "trace_cache_hit", traceHit,
		"engine_ms", engineWall.Milliseconds(), "wall_ms", resp.WallMs)
	return resp, nil
}

// buildProgram compiles the plan's program and runs its backend's shaping
// pass (the enlarger for block-structured, the linear reshaper for
// basicblocker, nothing for the others). Jobs waiting on the same artifact
// share this build, so it deliberately takes no context: a canceled first
// requester must not abort an artifact that other requests are waiting on.
func buildProgram(plan *Plan) (*isa.Program, error) {
	p := plan.Program
	var src, name string
	switch {
	case p.Source != "":
		src, name = p.Source, "request"
	case p.Seed != nil:
		src, name = testgen.Program(*p.Seed), fmt.Sprintf("seed-%d", *p.Seed)
	default:
		prof, ok := workload.ProfileByName(p.Workload, p.Scale)
		if !ok {
			return nil, fmt.Errorf("%w: unknown workload %q", ErrBadProgram, p.Workload)
		}
		var err error
		src, err = workload.Source(prof)
		if err != nil {
			return nil, err
		}
		name = p.Workload
	}
	be, err := backend.Get(p.ISA)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	prog, err := compile.Compile(src, name, compile.DefaultOptions(be.Kind()))
	if err != nil {
		// The program came from the request, so a compile failure is a
		// client error.
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	if _, err := be.Shape(prog, plan.EnlargeParams()); err != nil {
		return nil, err
	}
	return prog, nil
}

// renderTable renders the human-oriented table for a service response,
// mirroring bsim's sweep output columns.
func renderTable(plan *Plan, results []SimResult) *Table {
	multiAxis := plan.Sweep && plan.Predictors != nil
	t := &stats.Table{
		Columns: []string{"ICache", "Cycles", "IPC", "ICMiss%", "Mispredicts"},
	}
	switch {
	case multiAxis:
		t.Title = fmt.Sprintf("Multi-axis sweep (%s)", plan.Program.ISA)
		t.Columns = []string{"ICache", "Predictor", "Cycles", "IPC", "ICMiss%", "Mispredicts"}
	case plan.Sweep:
		t.Title = fmt.Sprintf("ICache sweep (%s)", plan.Program.ISA)
	default:
		t.Title = fmt.Sprintf("Timing (%s)", plan.Program.ISA)
	}
	for _, r := range results {
		label := fmt.Sprintf("%dB", r.ICacheBytes)
		if r.ICacheBytes == 0 {
			label = "perfect"
		}
		miss := 0.0
		if r.ICache.Accesses > 0 {
			miss = 100 * float64(r.ICache.Misses) / float64(r.ICache.Accesses)
		}
		mp := r.TrapMispredicts + r.FaultMispredicts + r.Misfetches
		if multiAxis {
			t.AddRow(label, predictorLabel(r.Predictor), r.Cycles, r.IPC, fmt.Sprintf("%.2f", miss), mp)
		} else {
			t.AddRow(label, r.Cycles, r.IPC, fmt.Sprintf("%.2f", miss), mp)
		}
	}
	return TableOf(t)
}

// predictorLabel renders a predictor point compactly ("default" when every
// knob keeps the paper's value).
func predictorLabel(p *PredictorSpec) string {
	if p == nil {
		return "default"
	}
	label := ""
	add := func(tag string, v int) {
		if v != 0 {
			label += fmt.Sprintf("%s%d/", tag, v)
		}
	}
	add("hist", p.HistoryBits)
	add("pht", p.PHTEntries)
	add("btb", p.BTBSets)
	add("ways", p.BTBWays)
	add("ras", p.RASDepth)
	if label == "" {
		return "default"
	}
	return label[:len(label)-1]
}
