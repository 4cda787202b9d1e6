package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"bsisa/internal/svc"
	"bsisa/internal/workload"
)

// benchBackends are the four registered ISA backends, by their short aliases.
var benchBackends = []string{"conv", "bsa", "bb", "fused"}

// warmPrograms are serve-warm's programs: with four backends each they make
// 16 traces, exactly the default trace LRU, so every timed request hits.
var warmPrograms = []string{"gcc", "go", "li", "m88ksim"}

// figureSizes is the paper's icache sweep: perfect, 8K, 16K and 32K.
var figureSizes = []int{0, 8 * 1024, 16 * 1024, 32 * 1024}

// historyBits is serve-warm's branch-history axis.
var historyBits = []int{2, 4, 8, 12}

// benchRequest is one prepared request: the request itself, its wire body
// (marshalled once, before any timing), the plan the service derives from it
// and a stable label.
type benchRequest struct {
	label string
	req   *svc.SimRequest
	body  []byte
	plan  *svc.Plan
}

func newRequest(label string, req *svc.SimRequest) (*benchRequest, error) {
	req.Version = svc.SchemaVersion
	req.ID = label
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal %s: %w", label, err)
	}
	plan, err := svc.BuildConfig(req)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", label, err)
	}
	return &benchRequest{label: label, req: req, body: body, plan: plan}, nil
}

func icacheSweep(prog, isaName string, scale float64) *svc.SimRequest {
	return &svc.SimRequest{
		Program: svc.ProgramSpec{Workload: prog, Scale: scale, ISA: isaName},
		Sweep:   &svc.SweepSpec{ICacheSizes: figureSizes},
	}
}

// figureSet is the paper figure set: every Table-2 profile on every backend,
// each as one 4-point icache sweep on the paper machine. One pass answers
// Figures 3/5/6/7 and the head-to-head table.
func figureSet() ([]*benchRequest, error) {
	var out []*benchRequest
	for _, p := range workload.Profiles(scale) {
		for _, be := range benchBackends {
			r, err := newRequest(p.Name+"/"+be+"/icache", icacheSweep(p.Name, be, scale))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// warmupSet is serve-warm's warm-up: one icache sweep per warm program, which
// builds every program, trace and predecoded table the timed passes use.
func warmupSet() ([]*benchRequest, error) {
	var out []*benchRequest
	for _, p := range warmPrograms {
		for _, be := range benchBackends {
			r, err := newRequest(p+"/"+be+"/warmup", icacheSweep(p, be, scale))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// warmSet is serve-warm's 48-request pass: per warm program and backend a
// 4-point icache sweep, a 4x4 history x icache sweep, and one single
// Figure-3 configuration (32 KB icache).
func warmSet() ([]*benchRequest, error) {
	var out []*benchRequest
	for _, p := range warmPrograms {
		for _, be := range benchBackends {
			spec := svc.ProgramSpec{Workload: p, Scale: scale, ISA: be}
			reqs := []struct {
				kind string
				req  *svc.SimRequest
			}{
				{"icache", icacheSweep(p, be, scale)},
				{"history", &svc.SimRequest{Program: spec, Sweep: &svc.SweepSpec{ICacheSizes: figureSizes, HistoryBits: historyBits}}},
				{"single", &svc.SimRequest{Program: spec, Config: &svc.ConfigSpec{ICache: &svc.CacheSpec{SizeBytes: 32 * 1024, Ways: 4}}}},
			}
			for _, r := range reqs {
				br, err := newRequest(p+"/"+be+"/"+r.kind, r.req)
				if err != nil {
					return nil, err
				}
				out = append(out, br)
			}
		}
	}
	return out, nil
}

// passOrder returns the request order of one pass: a permutation of n drawn
// from the run's seed and the pass number, so the same seed replays the same
// sequence of orders.
func passOrder(seed int64, pass, n int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	return rng.Perm(n)
}
