package uarch

import (
	"context"
	"fmt"

	"bsisa/internal/emu"
)

// ReplayTrace drives a fresh timing simulator from a recorded committed-block
// trace instead of re-running functional emulation. Because the timing model
// is execution-driven — it consumes only the committed stream, which is
// independent of the timing configuration — the result is identical to
// RunProgram with the trace's program and emulation budget, at a fraction of
// the cost when one trace is replayed under many configurations.
func ReplayTrace(t *emu.Trace, cfg Config) (*Result, error) {
	return ReplayTraceContext(context.Background(), t, cfg)
}

// ReplayTraceContext is ReplayTrace with cooperative cancellation: the
// replay checks ctx between trace chunks and returns ctx.Err() promptly once
// the context is done.
func ReplayTraceContext(ctx context.Context, t *emu.Trace, cfg Config) (*Result, error) {
	return replayTrace(ctx, t, cfg, nil)
}

// replayTrace is ReplayTraceContext on a shared predecoded table (nil
// flattens one for this replay).
func replayTrace(ctx context.Context, t *emu.Trace, cfg Config, tab *Predecoded) (*Result, error) {
	sim, err := newSim(t.Program(), cfg, tab)
	if err != nil {
		return nil, err
	}
	defer sim.release()
	if err := t.ReplayContext(ctx, sim.OnBlock); err != nil {
		return nil, err
	}
	return sim.Finish(), nil
}

// SimulateMany replays one trace through an independent timing simulator per
// configuration, one configuration after another on the calling goroutine.
// Results are returned in configuration order; each is identical to a
// standalone ReplayTrace (simulators share only the read-only trace, program
// and predecoded tables). workers is ignored.
func SimulateMany(t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return SimulateManyContext(context.Background(), t, cfgs, workers)
}

// SimulateManyContext is SimulateMany with cooperative cancellation: each
// replay checks ctx between trace chunks, and the call returns an error
// satisfying errors.Is(err, ctx.Err()) once ctx is done. workers is ignored.
func SimulateManyContext(ctx context.Context, t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return simulateMany(ctx, t, cfgs, nil)
}

// simulateMany is SimulateManyContext on a shared predecode (nil flattens
// the tables this batch needs). Each configuration runs on the table the one
// before it ran on when their issue widths agree, so a batch of one width
// flattens at most once. It stops at the first error.
func simulateMany(ctx context.Context, t *emu.Trace, cfgs []Config, pre *Predecoded) ([]*Result, error) {
	prog := t.Program()
	results := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		pre = tableFor(prog, cfg.EffectiveIssueWidth(), pre)
		r, err := replayTrace(ctx, t, cfg, pre)
		if err != nil {
			return nil, fmt.Errorf("uarch: config %d: %w", i, err)
		}
		results[i] = r
	}
	return results, nil
}
