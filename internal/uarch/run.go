package uarch

import (
	"context"

	"bsisa/internal/emu"
)

// Engine names the timing path Run takes for a batch of configurations.
// The values are the wire names the service reports in its responses.
type Engine string

const (
	// EngineSweep is the unified multi-axis sweep (Sweep): one shared
	// enrichment replay plus one timing lane per configuration.
	EngineSweep Engine = "sweep"
	// EngineMany replays the trace once per configuration on a live Sim
	// (SimulateMany).
	EngineMany Engine = "simulate-many"
)

// Route is Run's engine choice for a batch, and why it was made. Run also
// reports in Memo what the outcome memo did; RouteFor leaves it absent.
type Route struct {
	Engine Engine
	Reason string
	Memo   MemoUse
}

// MemoUse says what an OutcomeMemo did for one Run.
type MemoUse uint8

const (
	// MemoAbsent: Run had no memo of the trace, or took the simulate-many
	// route.
	MemoAbsent MemoUse = iota
	// MemoServed: the memo recorded every predictor class of the sweep, so
	// no enrichment replay ran.
	MemoServed
	// MemoRecorded: the enrichment ran, and the memo kept records it
	// lacked.
	MemoRecorded
	// MemoMissed: the enrichment ran, and the memo kept nothing new, being
	// full or already holding what a concurrent sweep published.
	MemoMissed
)

func (u MemoUse) String() string {
	return [...]string{"absent", "served", "recorded", "missed"}[u]
}

// RouteFor picks the engine for cfgs: the sweep when the batch has more
// than one configuration and CanSweep accepts it, one live replay per
// configuration otherwise. Reason says why a batch does not sweep ("one
// configuration", or CanSweep's reason); it is empty on the sweep route.
// Both engines return identical results, so the route only decides how the
// work is shared.
func RouteFor(cfgs []Config) Route {
	if len(cfgs) == 1 {
		return Route{Engine: EngineMany, Reason: "one configuration"}
	}
	if ok, reason := CanSweep(cfgs); !ok {
		return Route{Engine: EngineMany, Reason: reason}
	}
	return Route{Engine: EngineSweep}
}

// Run simulates one trace under every configuration in cfgs on the engine
// RouteFor picks, and reports that route. Results are in configuration
// order and identical, field for field, to SimulateMany on the same inputs.
// The engine runs on the calling goroutine. pre, when non-nil, is a prebuilt
// Predecode of the trace's program for the engines to share (one for
// another program or issue width is ignored). memo, when non-nil, is the
// trace's outcome memo: a sweep whose predictor classes it all records is
// served from it, and any other sweep records there what it lacks (one
// kept for another trace is ignored). Run checks ctx between trace chunks
// and returns an error satisfying errors.Is(err, ctx.Err()) once it is
// done; a canceled sweep records nothing.
func Run(ctx context.Context, t *emu.Trace, cfgs []Config, pre *Predecoded, memo *OutcomeMemo) ([]*Result, Route, error) {
	route := RouteFor(cfgs)
	var rs []*Result
	var err error
	if route.Engine == EngineSweep {
		rs, route.Memo, err = sweep(ctx, t, cfgs, pre, memo, nil)
	} else {
		rs, err = simulateMany(ctx, t, cfgs, pre)
	}
	return rs, route, err
}
