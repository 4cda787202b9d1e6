package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// coalescer folds concurrent identical requests onto one simulation pass.
// The first request for a plan becomes the flight's leader and runs the job
// through the worker pool as usual; every request for the same plan that
// arrives while the flight is open waits on it and shares the leader's
// response instead of enqueueing a pass of its own. The flight closes when
// the leader publishes, so a request arriving after that runs normally (and
// typically hits the artifact caches instead).
//
// Coalescing is keyed on the validated Plan — program, emulation budget,
// configurations — never on the request ID or timeout, so two
// clients asking the same question at the same moment cost one pass. A
// follower never inherits an outcome that only reflects the leader's own
// lifetime (its client disconnecting, or the client's own request deadline):
// handleSim retries those, starting or joining a fresh flight, up to a small
// cap. An outcome that exceeded the *plan's* deadline is shared instead —
// the same pass would be just as doomed re-run under each follower in turn
// (see errPlanDeadline in server.go).
type coalescer struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress pass. out is written exactly once, before done
// closes; followers read it only after <-done.
type flight struct {
	done chan struct{}
	out  jobOutcome
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[string]*flight)}
}

// join registers interest in key. leader reports whether the caller owns the
// flight and must publish with finish; otherwise the returned flight's done
// channel closes once the leader has.
func (c *coalescer) join(key string) (f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome to the flight's followers and
// retires the flight: requests arriving after this start a pass of their
// own.
func (c *coalescer) finish(key string, f *flight, out jobOutcome) {
	c.mu.Lock()
	if cur, ok := c.flights[key]; ok && cur == f {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	f.out = out
	close(f.done)
}

// coalesceKey derives the flight key of a validated plan: a hash of its
// canonical JSON, covering everything that determines the simulation's
// answer and nothing that is per-request (ID, timeout).
func coalesceKey(plan *Plan) string {
	blob, err := json.Marshal(struct {
		Program ProgramSpec
		MaxOps  int64
		Configs any
		Sweep   bool
	}{plan.Program, plan.EmuCfg.MaxOps, plan.Configs, plan.Sweep})
	if err != nil {
		// Plans contain only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("svc: coalesceKey: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}
