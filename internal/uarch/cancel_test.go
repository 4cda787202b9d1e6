package uarch

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/workload"
)

// countdownCtx is a deterministic cancellation source: Err() reports
// context.Canceled after the budget of checks is spent. It makes "cancel
// mid-replay" reproducible without timers — the replay engines poll Err()
// between trace chunks, so a small budget cancels partway through work.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.budget.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cancelTrace records one deterministic trace long enough to span many
// cancellation chunks (generated testgen programs are far too short).
func cancelTrace(t *testing.T) *emu.Trace {
	t.Helper()
	prof, ok := workload.ProfileByName("compress", 0.05)
	if !ok {
		t.Fatal("no compress profile")
	}
	src, err := workload.Source(prof)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(src, "cancel", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() < 4*4096 {
		t.Fatalf("trace too short to test chunked cancellation: %d events", tr.NumEvents())
	}
	return tr
}

// checkNoGoroutineLeak fails the test if the goroutine count has not
// returned to its baseline shortly after a canceled call: the engines
// promise to drain their worker pools before returning.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestReplayTraceContextCanceled(t *testing.T) {
	tr := cancelTrace(t)
	cfg := sweepGrid(false)[1]

	// Pre-canceled context: nothing simulates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayTraceContext(ctx, tr, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled replay: got %v, want context.Canceled", err)
	}

	// Cancel mid-replay: the budget admits a few chunk checks, then trips.
	if _, err := ReplayTraceContext(newCountdownCtx(2), tr, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-replay cancel: got %v, want context.Canceled", err)
	}

	// A background context must not perturb results.
	want, err := ReplayTrace(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayTraceContext(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("context replay diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestSimulateManyContextCanceled(t *testing.T) {
	tr := cancelTrace(t)
	cfgs := sweepGrid(false)
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		results, err := SimulateManyContext(newCountdownCtx(3), tr, cfgs, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if results != nil {
			t.Fatalf("workers=%d: canceled call returned results", workers)
		}
		checkNoGoroutineLeak(t, baseline)
	}
}

func TestSweepContextCanceled(t *testing.T) {
	tr := cancelTrace(t)
	grids := map[string][]Config{
		"icache": sweepGrid(false),
		"pred":   predGrid(1024),
		"cross":  crossGrid(),
	}
	for label, cfgs := range grids {
		if ok, reason := CanSweep(cfgs); !ok {
			t.Fatalf("%s: grid should be sweepable: %s", label, reason)
		}
		for _, workers := range []int{1, 4} {
			baseline := runtime.NumGoroutine()
			results, err := SweepPredecoded(newCountdownCtx(3), tr, cfgs, workers, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: got %v, want context.Canceled", label, workers, err)
			}
			if results != nil {
				t.Fatalf("%s workers=%d: canceled call returned results", label, workers)
			}
			checkNoGoroutineLeak(t, baseline)
		}
	}

	// A background context must not perturb results.
	cfgs := predGrid(1024)
	want, err := Sweep(tr, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepPredecoded(context.Background(), tr, cfgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("context sweep diverged at config %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestSimulateManyContextPrompt bounds the cancellation latency: once the
// context is done, a replay over a multi-million-event trace must bail out
// after at most one chunk (4096 events) per in-flight lane rather than
// finishing the trace.
func TestSimulateManyContextPrompt(t *testing.T) {
	tr := cancelTrace(t)
	cfgs := sweepGrid(false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := SimulateManyContext(ctx, tr, cfgs, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	full := time.Since(start)
	// A full serial replay of this grid takes hundreds of milliseconds; a
	// canceled one should be near-instant. The generous bound keeps the
	// check meaningful without being flaky on slow machines.
	if full > 2*time.Second {
		t.Fatalf("canceled SimulateMany took %v; cancellation is not prompt", full)
	}
}
