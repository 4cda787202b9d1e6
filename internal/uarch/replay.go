package uarch

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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

// fanOut runs fn(0..n-1) across a bounded worker pool. workers <= 0 means
// GOMAXPROCS; the pool never exceeds n. The first error wins; remaining
// items still run unless the context is canceled, in which case undispatched
// items are dropped and ctx.Err() is reported (a real error from fn still
// takes precedence). fanOut returns only after every worker goroutine has
// exited, so a canceled call leaks nothing. Results indexed by i are
// race-free because each index is handed to exactly one worker.
func fanOut(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var ferr error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if ferr == nil {
					ferr = err
				}
				break
			}
			if err := fn(i); err != nil && ferr == nil {
				ferr = err
			}
		}
		return ferr
	}
	var (
		wg   sync.WaitGroup
		idx  = make(chan int)
		mu   sync.Mutex
		ferr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if ferr == nil {
		ferr = ctx.Err()
	}
	return ferr
}

// SimulateMany replays one trace through an independent timing simulator per
// configuration, fanning the replays out over a bounded worker pool (workers
// <= 0 means GOMAXPROCS). Results are returned in configuration order; each
// is identical to a standalone ReplayTrace regardless of the worker count
// (simulators share only the read-only trace, program and predecoded
// tables).
func SimulateMany(t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return SimulateManyContext(context.Background(), t, cfgs, workers)
}

// SimulateManyContext is SimulateMany with cooperative cancellation: every
// in-flight replay checks ctx between trace chunks, queued configurations
// are dropped once ctx is done, and the call returns an error satisfying
// errors.Is(err, ctx.Err()) with the worker pool fully drained.
func SimulateManyContext(ctx context.Context, t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return simulateMany(ctx, t, cfgs, workers, nil)
}

// simulateMany is SimulateManyContext on a shared predecode (nil flattens
// the tables this batch needs).
func simulateMany(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded) ([]*Result, error) {
	tabs := tablesFor(t.Program(), cfgs, pre)
	results := make([]*Result, len(cfgs))
	err := fanOut(ctx, len(cfgs), workers, func(i int) error {
		r, err := replayTrace(ctx, t, cfgs[i], tabs[i])
		if err != nil {
			return fmt.Errorf("uarch: config %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
