package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"
)

// tier is the artifact tier a workload's requests are served from.
type tier int

const (
	// tierCold: every pass starts a fresh server on an empty store, so every
	// program is built, every trace recorded and written through.
	tierCold tier = iota
	// tierRestart: every pass starts a fresh server over a store populated
	// during setup, so traces are mapped from disk and programs rebuilt.
	tierRestart
	// tierWarm: one server warmed during setup, so every artifact hits.
	tierWarm
)

// benchWorkload is one traffic mix. Why each exists is recorded in
// BENCHMARK.json and README.md.
type benchWorkload struct {
	name string
	tier tier
	// requests builds one pass's request set.
	requests func() ([]*benchRequest, error)
	// preload builds what setup sends before timing: the store population
	// (serve-restart) or the warm-up pass (serve-warm).
	preload func() ([]*benchRequest, error)
}

var workloads = []*benchWorkload{
	{
		name:     "serve-cold",
		tier:     tierCold,
		requests: figureSet,
	},
	{
		name:     "serve-restart",
		tier:     tierRestart,
		requests: figureSet,
		preload:  figureSet,
	},
	{
		name:     "serve-warm",
		tier:     tierWarm,
		requests: warmSet,
		preload:  warmupSet,
	},
}

func workloadByName(name string) (*benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// usesStore reports whether the workload's servers run over a trace store.
func (t tier) usesStore() bool { return t != tierWarm }

// setupReps is how many set-ups a timed run at the tier makes.
func (t tier) setupReps() int {
	if t == tierCold {
		return coldSetupReps
	}
	return setupReps
}

// stage owns the server a workload's passes run against, and the store
// directory under it.
type stage struct {
	w       *benchWorkload
	scratch string // parent of every store directory
	client  *http.Client
	preload []*benchRequest

	srv      *benchServer
	storeDir string
}

// setup brings up a server at the workload's tier from nothing: a fresh empty
// store (serve-cold), a store populated by one full pass of a throwaway
// server and a fresh server over it (serve-restart), or a server warmed by
// the warm-up pass (serve-warm). Its wall time is one setup_s sample.
func (st *stage) setup() (time.Duration, error) {
	st.teardown()
	// Start from a collected heap, so a set-up does not pay for collecting
	// what earlier work left behind. A cold set-up takes about 0.1 ms, and
	// without this its median moved threefold from run to run.
	runtime.GC()
	t0 := time.Now()
	if st.w.tier.usesStore() {
		dir, err := os.MkdirTemp(st.scratch, "store-*")
		if err != nil {
			return 0, err
		}
		st.storeDir = dir
	}
	srv, err := startServer(st.storeDir)
	if err != nil {
		return 0, err
	}
	st.srv = srv
	if len(st.preload) > 0 {
		samples, _ := runPass(st.client, srv.ts.URL, st.preload, identity(len(st.preload)), clients)
		for i := range samples {
			if err := samples[i].decode(); err != nil {
				return 0, fmt.Errorf("setup: %w", err)
			}
		}
	}
	if st.w.tier == tierRestart {
		if err := st.reopen(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// reopen replaces the server with a fresh one over the same store directory.
func (st *stage) reopen() error {
	st.srv.close()
	srv, err := startServer(st.storeDir)
	if err != nil {
		st.srv = nil
		return err
	}
	st.srv = srv
	return nil
}

// teardown stops the server and deletes its store.
func (st *stage) teardown() {
	if st.srv != nil {
		st.srv.close()
		st.srv = nil
	}
	if st.storeDir != "" {
		os.RemoveAll(st.storeDir)
		st.storeDir = ""
	}
}

// beforePass readies the server for the next timed pass. Set-up leaves the
// server at the tier for the first pass; after that, serve-cold sets up from
// scratch, serve-restart opens a fresh server over its store, and serve-warm
// keeps its server. None of this is timed.
func (st *stage) beforePass(pass int) error {
	if pass == 0 {
		return nil
	}
	switch st.w.tier {
	case tierCold:
		_, err := st.setup()
		return err
	case tierRestart:
		return st.reopen()
	}
	return nil
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// guard checks a timed phase's /metrics deltas and its responses against the
// tier the workload claims to measure, so numbers from the wrong tier are
// never reported.
func (t tier) guard(d promSample, samples []sample) error {
	n := int64(len(samples))
	if v := d.count(seriesRejected); v != 0 {
		return fmt.Errorf("%d requests rejected", v)
	}
	switch t {
	case tierCold:
		if v := d.count(seriesRecords); v != n {
			return fmt.Errorf("cold: %d trace records for %d requests", v, n)
		}
		// Every recording is written through once, and every predecoded table
		// the sweep engine builds is attached to its trace file once more.
		want := n + d.count(cacheSeries("predecode", "miss"))
		if v := d.count(storeSeries("write")); v != want {
			return fmt.Errorf("cold: %d store writes, want %d", v, want)
		}
		if v := d.count(storeSeries("hit")); v != 0 {
			return fmt.Errorf("cold: %d store hits", v)
		}
	case tierRestart:
		if v := d.count(seriesRecords); v != 0 {
			return fmt.Errorf("restart: %d trace records", v)
		}
		if v := d.count(storeSeries("hit")); v != n {
			return fmt.Errorf("restart: %d store hits for %d requests", v, n)
		}
		for _, e := range []string{"fulldecode", "corrupt"} {
			if v := d.count(storeSeries(e)); v != 0 {
				return fmt.Errorf("restart: %d store %s events", v, e)
			}
		}
	case tierWarm:
		if v := d.count(seriesRecords); v != 0 {
			return fmt.Errorf("warm: %d trace records", v)
		}
		for _, c := range []string{"program", "trace"} {
			for _, e := range []string{"miss", "eviction"} {
				if v := d.count(cacheSeries(c, e)); v != 0 {
					return fmt.Errorf("warm: %d %s cache %s events", v, c, e)
				}
			}
		}
	}
	for i := range samples {
		s := &samples[i]
		if s.resp == nil {
			continue // already failed; counted by the caller
		}
		ac := s.resp.ArtifactCache
		if ac == nil {
			return fmt.Errorf("%s: response lacks artifact_cache", s.req.label)
		}
		var bad bool
		switch t {
		case tierCold:
			bad = ac.Program || ac.Trace || ac.Store
		case tierRestart:
			bad = ac.Trace || !ac.Store || !ac.Mmap
		case tierWarm:
			bad = !ac.Program || !ac.Trace
		}
		if bad {
			return fmt.Errorf("%s: artifact_cache %+v is off the workload's tier", s.req.label, *ac)
		}
	}
	return nil
}
