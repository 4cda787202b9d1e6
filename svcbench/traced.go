package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bsisa/internal/svc"
)

// tracedRun is what the traced pass collected.
type tracedRun struct {
	samples  []sample
	failed   map[int]bool // sample index -> failed
	delta    promSample   // per-request /metrics deltas, summed
	reqTotal time.Duration
}

// runTracedWorkload sets the workload's tier up once and runs one sequential
// single-client pass over its request set, in the seed's order. Each request
// is sent to the server, with /metrics scraped around it, and then repeated
// layer by layer by the replica. It returns the per-layer metrics and writes
// every span, once, at the end.
func runTracedWorkload(w *benchWorkload, o *options, scratch string, stamp hostStamp) (*result, error) {
	reqs, err := w.requests()
	if err != nil {
		return nil, err
	}
	st := &stage{w: w, scratch: scratch, client: newClient(1)}
	if w.preload != nil {
		if st.preload, err = w.preload(); err != nil {
			return nil, err
		}
	}
	defer st.teardown()
	if _, err := st.setup(); err != nil {
		return nil, err
	}
	// The replica's artifact maps start at the server's tier.
	tr := &tracer{}
	var rep *replica
	switch w.tier {
	case tierCold:
		// The replica writes through to a store of its own, so the server's
		// next request never finds the replica's files.
		dir, err := os.MkdirTemp(scratch, "replica-*")
		if err != nil {
			return nil, err
		}
		store, err := svc.NewStore(dir)
		if err != nil {
			return nil, err
		}
		rep = newReplica(tr, store)
	case tierRestart:
		store, err := svc.NewStore(st.storeDir)
		if err != nil {
			return nil, err
		}
		rep = newReplica(tr, store)
	case tierWarm:
		// Warmed on the requests that warmed the server, untraced.
		rep = newReplica(tr, nil)
		for _, br := range st.preload {
			if _, err := rep.execute(0, 0, br.body, nil); err != nil {
				rep.release()
				return nil, fmt.Errorf("replica warm-up: %w", err)
			}
		}
	}
	defer rep.release()

	tr.on, tr.t0 = true, time.Now()
	run := &tracedRun{failed: map[int]bool{}, delta: promSample{}}
	book := newAnswerBook()
	for _, i := range passOrder(o.seed, 0, len(reqs)) {
		if err := run.request(st, rep, book, reqs[i]); err != nil {
			return nil, err
		}
	}

	v, err := judge(w.tier, run.samples, run.delta, book, run.failed)
	if err != nil {
		return nil, err
	}

	m := layerMetrics(tr.spans, run.delta, len(run.samples))
	fmt.Printf("# workload %s (traced)\n", w.name)
	fmt.Printf("# one traced pass: %d requests, %d spans, %.3f s of round trips\n",
		len(run.samples), len(tr.spans), run.reqTotal.Seconds())
	v.print(len(book.answers))
	m.print()

	path := filepath.Join(o.out, fmt.Sprintf("svcbench-spans-%s-seed%d.json", w.name, o.seed))
	blob, err := json.Marshal(struct {
		Host    hostStamp              `json:"host"`
		Metrics map[string]metricValue `json:"metrics"`
		Spans   []span                 `json:"spans"`
	}{stamp, m.vals, tr.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", path)
	return &result{Correct: v.failed == 0, Attempted: len(run.samples), Failed: v.failed, Metrics: m.vals}, nil
}

// request sends one traced request and repeats it through the replica. A
// request that fails, or whose engine, artifact_cache or results disagree
// with the replica's, is marked failed; only infrastructure errors (a
// /metrics scrape failing) end the run.
func (run *tracedRun) request(st *stage, rep *replica, book *answerBook, br *benchRequest) error {
	before, err := st.srv.scrape(st.client)
	if err != nil {
		return err
	}
	id := len(run.samples) + 1
	var s sample
	root, _ := rep.tr.do(id, 0, "svc.request", func() error {
		s = post(st.client, st.srv.ts.URL, br)
		return nil
	})
	after, err := st.srv.scrape(st.client)
	if err != nil {
		return err
	}
	run.delta.add(sub(after, before))
	run.reqTotal += s.dur
	run.samples = append(run.samples, s)
	idx := len(run.samples) - 1
	sp := &run.samples[idx]

	err = sp.decode()
	if err == nil {
		err = book.record(sp)
	}
	if err == nil {
		var out *outcome
		if out, err = rep.execute(id, root, br.body, sp.resp); err == nil {
			err = agree(sp.resp, out)
		}
	}
	if err != nil {
		run.failed[idx] = true
		fmt.Fprintf(os.Stderr, "svcbench: traced %s: %v\n", br.label, err)
	}
	return nil
}

// agree checks the replica's routing and answers against the response.
func agree(resp *svc.SimResponse, out *outcome) error {
	if resp.Engine != out.engine {
		return fmt.Errorf("routing: response engine %q, gates chose %q", resp.Engine, out.engine)
	}
	if resp.ArtifactCache == nil || *resp.ArtifactCache != out.hits {
		return fmt.Errorf("routing: response artifact_cache %+v, replica maps say %+v", resp.ArtifactCache, out.hits)
	}
	if len(resp.Results) != len(out.results) {
		return fmt.Errorf("%d results, replica has %d", len(resp.Results), len(out.results))
	}
	for i, want := range out.results {
		got := resp.Results[i]
		got.Predictor = nil // the echo was checked against the plan by answerBook.record
		if got != want {
			return fmt.Errorf("result %d differs from the replica's\nserver:  %+v\nreplica: %+v", i, got, want)
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans and the summed
// per-request /metrics deltas of a traced pass over requests requests.
func layerMetrics(spans []span, delta promSample, requests int) *metricSet {
	type agg struct {
		calls         int
		durNs, selfNs int64
		bytes         uint64
		work          int64
		configs       int
	}
	self := selfTimes(spans)
	by := map[string]*agg{}
	get := func(name string) *agg {
		if by[name] == nil {
			by[name] = &agg{}
		}
		return by[name]
	}
	for _, s := range spans {
		a := get(s.Name)
		a.calls++
		a.durNs += s.DurNs
		a.selfNs += self[s.ID]
		a.bytes += s.Bytes
		a.work += s.Work
		a.configs += s.Configs
	}
	reqNs := float64(get("svc.request").durNs)
	m := &metricSet{}
	perCall := func(a *agg, x float64) float64 { return ratio(x, float64(a.calls)) }
	// timed publishes a span's mean wall time per call in unit, its share of
	// the traced request time (by self time, so nested spans are not counted
	// twice) and its calls.
	timed := func(name, metric string, unit time.Duration) *agg {
		a := get(name)
		ns := a.durNs
		if name == "svc.request" {
			ns = a.selfNs // svc.self_ms: the round trip minus its layer calls
		}
		u := map[time.Duration]string{time.Millisecond: "ms", time.Microsecond: "us"}[unit]
		m.set(metric, perCall(a, float64(ns)/float64(unit)), u)
		m.set(metric+".share", ratio(float64(a.selfNs), reqNs), "ratio")
		m.set(name+".calls", float64(a.calls), "count")
		return a
	}
	kbPerCall := func(a *agg, bytes float64) float64 { return perCall(a, bytes/1e3) }
	perSec := func(a *agg, work, scale float64) float64 { return ratio(work/scale, float64(a.durNs)/1e9) }
	hitRatio := func(cache string) float64 {
		hits := delta[cacheSeries(cache, "hit")]
		return ratio(hits, hits+delta[cacheSeries(cache, "miss")])
	}

	timed("svc.request", "svc.self_ms", time.Millisecond)
	timed("svc.decode", "svc.decode_us", time.Microsecond)
	a := timed("svc.marshal", "svc.marshal_us", time.Microsecond)
	m.set("svc.marshal_kb", kbPerCall(a, float64(a.work)), "KB")
	m.set("svc.program_hit_ratio", hitRatio("program"), "ratio")
	m.set("svc.trace_hit_ratio", hitRatio("trace"), "ratio")
	m.set("svc.predecode_hit_ratio", hitRatio("predecode"), "ratio")
	m.set("svc.coalesced_ratio", ratio(delta[seriesCoalesced], float64(requests)), "ratio")
	m.set("svc.trace_records", delta[seriesRecords], "count")

	timed("workload.source", "workload.source_ms", time.Millisecond)
	timed("lang.parse", "lang.parse_ms", time.Millisecond)
	timed("lang.check", "lang.check_ms", time.Millisecond)
	timed("compile.lower", "compile.lower_ms", time.Millisecond)
	a = timed("compile.module", "compile.module_ms", time.Millisecond)
	m.set("compile.module_kb", kbPerCall(a, float64(a.bytes)), "KB")
	a = timed("core.shape", "core.shape_ms", time.Millisecond)
	m.set("core.shape_kb", kbPerCall(a, float64(a.bytes)), "KB")

	a = timed("emu.record", "emu.record_ms", time.Millisecond)
	m.set("emu.record_mevents_per_s", perSec(a, float64(a.work), 1e6), "Mevent/s")
	m.set("emu.record_kb", kbPerCall(a, float64(a.bytes)), "KB")
	timed("emu.encode", "emu.encode_ms", time.Millisecond)

	timed("store.save", "store.save_ms", time.Millisecond)
	timed("store.attach_aux", "store.attach_aux_ms", time.Millisecond)
	timed("uarch.predecode", "uarch.predecode_ms", time.Millisecond)
	a = timed("store.load", "store.load_ms", time.Millisecond)
	m.set("store.load_gb_per_s", perSec(a, float64(a.work), 1e9), "GB/s")
	m.set("store.zero_copy_ratio", ratio(delta[seriesMmapMaps], delta[storeSeries("hit")]), "ratio")
	timed("uarch.predecode_decode", "uarch.predecode_decode_ms", time.Millisecond)

	sweep := timed("uarch.sweep", "uarch.sweep_ms", time.Millisecond)
	m.set("uarch.sweep_mops_per_s", perSec(sweep, float64(sweep.work), 1e6), "Mop/s")
	m.set("uarch.sweep_kb", kbPerCall(sweep, float64(sweep.bytes)), "KB")
	many := timed("uarch.many", "uarch.many_ms", time.Millisecond)
	m.set("uarch.many_mops_per_s", perSec(many, float64(many.work), 1e6), "Mop/s")
	seg := timed("uarch.segmented", "uarch.segmented_ms", time.Millisecond)
	seq := timed("uarch.replay", "uarch.replay_ms", time.Millisecond)
	m.set("uarch.segmented_speedup", ratio(float64(seq.durNs), float64(seg.durNs)), "x")
	m.set("uarch.sweep_share", ratio(float64(sweep.configs), float64(sweep.configs+many.configs+seg.configs)), "ratio")
	return m
}
