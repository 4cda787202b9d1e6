package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/svc"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// answerKey identifies one distinct answer: a normalized program and one
// timing configuration.
type answerKey struct {
	prog string
	cfg  uarch.Config
}

// answerBook collects every answer the timed phase received and checks each
// distinct one against the library reference path.
type answerBook struct {
	answers map[answerKey]svc.SimResult // first answer seen, predictor echo stripped
	bad     map[answerKey]bool
	progs   map[string]*svc.Plan // program -> a plan naming it
}

func newAnswerBook() *answerBook {
	return &answerBook{
		answers: map[answerKey]svc.SimResult{},
		bad:     map[answerKey]bool{},
		progs:   map[string]*svc.Plan{},
	}
}

// programID is the normalized program spec as JSON.
func programID(p *svc.Plan) string {
	blob, err := json.Marshal(p.Program)
	if err != nil {
		panic(err) // ProgramSpec holds only marshalable fields
	}
	return string(blob)
}

// record files a decoded response's answers. It returns an error when the
// response echoes a different icache size or predictor point than asked;
// answers that differ from an earlier answer to the same question mark that
// question bad.
func (b *answerBook) record(s *sample) error {
	plan := s.req.plan
	prog := programID(plan)
	b.progs[prog] = plan
	for i, cfg := range plan.Configs {
		got := s.resp.Results[i]
		if got.ICacheBytes != plan.ICacheBytes[i] {
			return fmt.Errorf("%s: result %d echoes icache %d, asked %d", s.req.label, i, got.ICacheBytes, plan.ICacheBytes[i])
		}
		var want *svc.PredictorSpec
		if plan.Predictors != nil {
			want = plan.Predictors[i]
		}
		if (got.Predictor == nil) != (want == nil) || (want != nil && *got.Predictor != *want) {
			return fmt.Errorf("%s: result %d echoes predictor %+v, asked %+v", s.req.label, i, got.Predictor, want)
		}
		got.Predictor = nil
		k := answerKey{prog, cfg}
		if prev, ok := b.answers[k]; !ok {
			b.answers[k] = got
		} else if prev != got {
			b.bad[k] = true
		}
	}
	return nil
}

// sampleBad reports whether any of a sample's answers is marked bad.
func (b *answerBook) sampleBad(s *sample) bool {
	prog := programID(s.req.plan)
	for _, cfg := range s.req.plan.Configs {
		if b.bad[answerKey{prog, cfg}] {
			return true
		}
	}
	return false
}

// check compares every distinct answer field for field with the library
// reference path — backend.Shape, emu.Record, uarch.SimulateMany — and marks
// every answer that differs. It returns the number of mismatches. The
// reference answers are computed on workers goroutines, one program each.
func (b *answerBook) check(workers int) (int, error) {
	todo := map[string][]uarch.Config{}
	for k := range b.answers {
		todo[k.prog] = append(todo[k.prog], k.cfg)
	}
	progs := make(chan string, len(todo)) // holds every program to compute
	for p := range todo {
		progs <- p
	}
	close(progs)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		ref      = map[answerKey]svc.SimResult{}
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for prog := range progs {
				cfgs := todo[prog]
				want, err := referenceResults(b.progs[prog], cfgs)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for i := range want {
					ref[answerKey{prog, cfgs[i]}] = want[i]
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	mismatches := 0
	for k, got := range b.answers {
		if got != ref[k] {
			b.bad[k] = true
			mismatches++
		}
	}
	return mismatches, nil
}

// referenceResults answers cfgs for the plan's program the slow, direct way:
// compile, shape, record, and one sequential replay per configuration.
func referenceResults(plan *svc.Plan, cfgs []uarch.Config) ([]svc.SimResult, error) {
	p := plan.Program
	prof, ok := workload.ProfileByName(p.Workload, p.Scale)
	if !ok {
		return nil, fmt.Errorf("reference: unknown workload %q", p.Workload)
	}
	src, err := workload.Source(prof)
	if err != nil {
		return nil, err
	}
	be, err := backend.Get(p.ISA)
	if err != nil {
		return nil, err
	}
	prog, err := compile.Compile(src, p.Workload, compile.DefaultOptions(be.Kind()))
	if err != nil {
		return nil, err
	}
	if _, err := be.Shape(prog, plan.EnlargeParams()); err != nil {
		return nil, err
	}
	tr, err := emu.Record(prog, plan.EmuCfg)
	if err != nil {
		return nil, err
	}
	rs, err := uarch.SimulateMany(tr, cfgs, 1)
	if err != nil {
		return nil, err
	}
	out := make([]svc.SimResult, len(rs))
	for i, r := range rs {
		out[i] = svc.ResultOf(cfgs[i].ICache.SizeBytes, r)
	}
	return out, nil
}
