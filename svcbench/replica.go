package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/ir"
	"bsisa/internal/isa"
	"bsisa/internal/lang"
	"bsisa/internal/svc"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// Engine names as svc.SimResponse.Engine reports them.
const (
	engineSweep     = "sweep"
	engineSegmented = "replay-segmented"
	engineMany      = "simulate-many"
)

// replica repeats a request's work through the layers' public functions, in
// the order svc.execute calls them, one span per call. It keeps artifact maps
// of its own in place of the server's caches, and decides which calls to make
// from them and from the public engine gates; the traced run then checks that
// decision against the response's engine and artifact_cache fields.
type replica struct {
	tr    *tracer
	store *svc.Store // nil when the workload runs without a store

	programs   map[string]*isa.Program
	traces     map[string]*replicaTrace
	predecodes map[string]*uarch.Predecoded
}

// replicaTrace mirrors the server's cached trace artifact.
type replicaTrace struct {
	tr        *emu.Trace
	aux       []emu.AuxSection
	fromStore bool
	mapped    *svc.MappedTrace // non-nil when loaded from the store
}

// outcome is what the replica expects the response to say, and its answers
// (without predictor echoes).
type outcome struct {
	engine  string
	hits    svc.ArtifactHits
	results []svc.SimResult
}

func newReplica(tr *tracer, store *svc.Store) *replica {
	return &replica{
		tr: tr, store: store,
		programs:   map[string]*isa.Program{},
		traces:     map[string]*replicaTrace{},
		predecodes: map[string]*uarch.Predecoded{},
	}
}

// release drops the replica's references on mapped traces.
func (r *replica) release() {
	for _, t := range r.traces {
		if t.mapped != nil {
			t.mapped.Release()
		}
	}
}

// route is svc.execute's engine choice, made from the public gates: the
// unified sweep for a sweepable batch, segmented replay for a single
// segmentable config when the job has more than one engine worker, and one
// replay per config otherwise.
func route(plan *svc.Plan, jobWorkers int) string {
	sweepable, _ := uarch.CanSweep(plan.Configs)
	sweepable = sweepable && uarch.CanSweepKind(plan.Kind())
	switch {
	case len(plan.Configs) > 1 && sweepable:
		return engineSweep
	case len(plan.Configs) == 1 && uarch.CanSegment(plan.Configs[0]) && jobWorkers > 1:
		return engineSegmented
	}
	return engineMany
}

// execute repeats one request. id is the request id and parent the span the
// layer calls hang under; resp is the server's answer, re-encoded as the
// marshal step.
func (r *replica) execute(id, parent int, body []byte, resp *svc.SimResponse) (*outcome, error) {
	var req *svc.SimRequest
	var plan *svc.Plan
	if _, err := r.tr.do(id, parent, "svc.decode", func() error {
		var err error
		if req, err = svc.DecodeRequest(bytes.NewReader(body)); err != nil {
			return err
		}
		plan, err = svc.BuildConfig(req)
		return err
	}); err != nil {
		return nil, err
	}
	out := &outcome{}

	progKey := programID(plan)
	prog, hit := r.programs[progKey]
	out.hits.Program = hit
	if !hit {
		var err error
		if prog, err = r.build(id, parent, plan); err != nil {
			return nil, err
		}
		r.programs[progKey] = prog
	}

	tKey, err := svc.TraceKeyFor(req)
	if err != nil {
		return nil, err
	}
	rt, hit := r.traces[tKey]
	out.hits.Trace = hit
	if !hit {
		if rt, err = r.trace(id, parent, tKey, prog, plan); err != nil {
			return nil, err
		}
		r.traces[tKey] = rt
	}
	out.hits.Store = rt.fromStore
	out.hits.Mmap = rt.mapped != nil && rt.mapped.ZeroCopy()

	out.engine = route(plan, runtime.GOMAXPROCS(0))
	var pre *uarch.Predecoded
	if out.engine == engineSweep {
		iw := plan.Configs[0].EffectiveIssueWidth()
		pKey := fmt.Sprintf("%s/iw=%d", progKey, iw)
		pre, hit = r.predecodes[pKey]
		out.hits.Predecode = hit
		if !hit {
			pre = r.predecode(id, parent, tKey, rt, prog, iw)
			r.predecodes[pKey] = pre
		}
	}
	results, err := r.simulate(id, parent, out.engine, rt.tr, plan, pre)
	if err != nil {
		return nil, err
	}
	out.results = make([]svc.SimResult, len(results))
	for i, res := range results {
		out.results[i] = svc.ResultOf(plan.ICacheBytes[i], res)
	}

	var buf bytes.Buffer
	mid, err := r.tr.do(id, parent, "svc.marshal", func() error {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	})
	if err != nil {
		return nil, err
	}
	r.tr.note(mid, int64(buf.Len()), 0)
	return out, nil
}

// simulate runs the engine the request was routed to. The server passes its
// configured JobWorkers, zero, so the engines take GOMAXPROCS workers; so does
// the replica.
func (r *replica) simulate(id, parent int, engine string, tr *emu.Trace, plan *svc.Plan, pre *uarch.Predecoded) ([]*uarch.Result, error) {
	const jobWorkers = 0
	ctx := context.Background()
	var results []*uarch.Result
	var sid int
	var err error
	switch engine {
	case engineSweep:
		sid, err = r.tr.do(id, parent, "uarch.sweep", func() (e error) {
			results, e = uarch.SweepPredecoded(ctx, tr, plan.Configs, jobWorkers, pre)
			return e
		})
	case engineMany:
		sid, err = r.tr.do(id, parent, "uarch.many", func() (e error) {
			results, e = uarch.SimulateManyContext(ctx, tr, plan.Configs, jobWorkers)
			return e
		})
	default:
		sid, err = r.tr.do(id, parent, "uarch.segmented", func() error {
			res, e := uarch.ReplayTraceSegmentedContext(ctx, tr, plan.Configs[0],
				uarch.SegmentOptions{Workers: jobWorkers, Segments: plan.Segments})
			results = []*uarch.Result{res}
			return e
		})
		if err == nil {
			err = r.replayBaseline(id, tr, plan.Configs[0], results[0])
		}
	}
	if err != nil {
		return nil, err
	}
	r.tr.note(sid, simOps(results), len(results))
	return results, nil
}

// replayBaseline times the sequential replay of a segmented request's trace
// and config: the baseline segmented replay has to beat. The server never
// runs it, so it is a root span of the request, outside the round trip's
// accounting.
func (r *replica) replayBaseline(id int, tr *emu.Trace, cfg uarch.Config, seg *uarch.Result) error {
	var seq *uarch.Result
	rid, err := r.tr.do(id, 0, "uarch.replay", func() (e error) {
		seq, e = uarch.ReplayTraceContext(context.Background(), tr, cfg)
		return e
	})
	if err != nil {
		return err
	}
	if *seq != *seg {
		return fmt.Errorf("segmented replay differs from sequential replay")
	}
	r.tr.note(rid, seq.Ops, 1)
	return nil
}

// build compiles and shapes the plan's program: svc's buildProgram, split
// into its layers.
func (r *replica) build(id, parent int, plan *svc.Plan) (*isa.Program, error) {
	p := plan.Program
	prof, ok := workload.ProfileByName(p.Workload, p.Scale)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	be, err := backend.Get(p.ISA)
	if err != nil {
		return nil, err
	}
	var (
		src  string
		file *lang.File
		info *lang.Info
		mod  *ir.Module
		prog *isa.Program
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"workload.source", func() (err error) { src, err = workload.Source(prof); return }},
		{"lang.parse", func() (err error) { file, err = lang.Parse(src); return }},
		{"lang.check", func() (err error) { info, err = lang.Check(file); return }},
		{"compile.lower", func() (err error) { mod, err = compile.Lower(file, info, p.Workload); return }},
		{"compile.module", func() (err error) {
			prog, err = compile.CompileModule(mod, compile.DefaultOptions(be.Kind()))
			return
		}},
		{"core.shape", func() error { _, err := be.Shape(prog, plan.EnlargeParams()); return err }},
	}
	for _, s := range steps {
		if _, err := r.tr.do(id, parent, s.name, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return prog, nil
}

// trace loads the trace from the store, or records it and writes it through.
// A store miss is its own span, so store.load counts only loads that served.
func (r *replica) trace(id, parent int, key string, prog *isa.Program, plan *svc.Plan) (*replicaTrace, error) {
	if r.store != nil {
		var mt *svc.MappedTrace
		var ok bool
		lid, _ := r.tr.do(id, parent, "store.load", func() error {
			mt, ok = r.store.LoadTraceMapped(key, prog, plan.EmuCfg)
			return nil
		})
		if ok {
			if fi, err := os.Stat(r.store.FilePath(key)); err == nil {
				r.tr.note(lid, fi.Size(), 0)
			}
			return &replicaTrace{tr: mt.Trace(), aux: mt.Aux(), fromStore: true, mapped: mt}, nil
		}
		r.tr.rename(lid, "store.miss")
	}
	var tr *emu.Trace
	rid, err := r.tr.do(id, parent, "emu.record", func() (err error) {
		tr, err = emu.Record(prog, plan.EmuCfg)
		return
	})
	if err != nil {
		return nil, err
	}
	r.tr.note(rid, int64(tr.NumEvents()), 0)
	if r.store != nil {
		// SaveTrace encodes the trace itself; the separate encode span is
		// its child, so store.save's self time is the write and the fsyncs.
		sid, err := r.tr.do(id, parent, "store.save", func() error { return r.store.SaveTrace(key, tr, nil) })
		if err != nil {
			return nil, err
		}
		var n int
		eid, _ := r.tr.do(id, sid, "emu.encode", func() error { n = len(tr.EncodeBytes(nil)); return nil })
		r.tr.note(eid, int64(n), 0)
	}
	return &replicaTrace{tr: tr}, nil
}

// predecode finds the predecoded op table for the issue width: decoded from
// the trace file's aux section when one is stored, flattened afresh (and
// attached to the trace file) otherwise.
func (r *replica) predecode(id, parent int, key string, rt *replicaTrace, prog *isa.Program, iw int) *uarch.Predecoded {
	for _, sec := range rt.aux {
		if sec.Tag != uint64(iw) {
			continue
		}
		var dec *uarch.Predecoded
		var derr error
		r.tr.do(id, parent, "uarch.predecode_decode", func() error {
			dec, derr = uarch.DecodePredecoded(sec.Data, prog)
			return nil
		})
		if derr == nil && dec.IssueWidth() == iw {
			return dec
		}
		break
	}
	var fresh *uarch.Predecoded
	r.tr.do(id, parent, "uarch.predecode", func() error { fresh = uarch.Predecode(prog, iw); return nil })
	if r.store != nil {
		r.tr.do(id, parent, "store.attach_aux", func() error {
			return r.store.AttachAux(key, rt.tr, emu.AuxSection{Tag: uint64(iw), Data: fresh.EncodeBytes()})
		})
	}
	return fresh
}

// simOps sums the simulated operations over an engine call's results.
func simOps(results []*uarch.Result) int64 {
	var n int64
	for _, r := range results {
		n += r.Ops
	}
	return n
}
