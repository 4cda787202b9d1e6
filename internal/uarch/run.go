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

// Route is Run's engine choice for a batch, and why it was made.
type Route struct {
	Engine Engine
	Reason string
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

// RunOptions tunes Run without changing its answers.
type RunOptions struct {
	// Workers bounds the engine's goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// Predecoded, when non-nil, is a prebuilt Predecode of the trace's
	// program for the engines to share (one for another program or issue
	// width is ignored).
	Predecoded *Predecoded
}

// Run simulates one trace under every configuration in cfgs on the engine
// RouteFor picks, and reports that route. Results are in configuration
// order and identical, field for field, to SimulateMany on the same inputs.
// Run checks ctx between trace chunks and returns an error satisfying
// errors.Is(err, ctx.Err()) once it is done.
func Run(ctx context.Context, t *emu.Trace, cfgs []Config, opt RunOptions) ([]*Result, Route, error) {
	route := RouteFor(cfgs)
	var rs []*Result
	var err error
	if route.Engine == EngineSweep {
		rs, err = sweep(ctx, t, cfgs, opt.Workers, opt.Predecoded, nil)
	} else {
		rs, err = simulateMany(ctx, t, cfgs, opt.Workers, opt.Predecoded)
	}
	return rs, route, err
}
