package uarch

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bsisa/internal/cache"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// segTrace compiles a randomized program for the given ISA and records its
// trace.
func segTrace(t *testing.T, seed int64, kind isa.Kind) *emu.Trace {
	t.Helper()
	src := testgen.Program(seed)
	prog, err := compile.Compile(src, "segment", compile.DefaultOptions(kind))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if kind == isa.BlockStructured {
		if _, err := core.Enlarge(prog, core.Params{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	tr, err := emu.Record(prog, emu.Config{MaxOps: 80_000_000})
	if err != nil {
		t.Fatalf("seed %d %s: record: %v", seed, kind, err)
	}
	return tr
}

// TestSegmentedMatchesReplay is the tentpole equivalence property: over
// randomized programs for both ISAs, with real and perfect branch
// prediction, finite and perfect icaches, ReplayTraceSegmented must return a
// Result bitwise-identical to ReplayTrace — every field, including cache
// statistics, misprediction counts and stall breakdowns — at every worker
// count and segment count, including segment counts larger than the trace.
func TestSegmentedMatchesReplay(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(7000); seed < 7000+int64(seeds); seed++ {
		for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
			tr := segTrace(t, seed, kind)
			for _, cfg := range []Config{
				{ICache: cache.Config{SizeBytes: 2048, Ways: 4}},
				{ICache: cache.Config{SizeBytes: 1024, Ways: 4}, PerfectBP: true},
				{}, // perfect icache, default predictor
			} {
				if !CanSegment(cfg) {
					t.Fatalf("config should segment: %+v", cfg)
				}
				want, err := ReplayTrace(tr, cfg)
				if err != nil {
					t.Fatalf("seed %d %s: replay: %v", seed, kind, err)
				}
				for _, opt := range []SegmentOptions{
					{Workers: 2},
					{Workers: 4, Segments: 3},
					{Workers: 8, Segments: 16},
					{Workers: 3, Segments: tr.NumEvents() + 7}, // more segments than events
				} {
					got, err := ReplayTraceSegmented(tr, cfg, opt)
					if err != nil {
						t.Fatalf("seed %d %s opt %+v: segmented: %v", seed, kind, opt, err)
					}
					if *got != *want {
						t.Errorf("seed %d %s icache=%dB perfectBP=%v opt=%+v: segmented differs\nsegmented:  %+v\nsequential: %+v",
							seed, kind, cfg.ICache.SizeBytes, cfg.PerfectBP, opt, *got, *want)
					}
				}
			}
		}
	}
}

// TestSegmentedDeterministic pins that the segment-parallel engine returns
// the same Result no matter how the work is split or scheduled — the
// deterministic order-independent reduce — by comparing every worker and
// segment combination against the first.
func TestSegmentedDeterministic(t *testing.T) {
	tr := segTrace(t, 7100, isa.BlockStructured)
	cfg := Config{ICache: cache.Config{SizeBytes: 2048, Ways: 4}}
	var first *Result
	for _, workers := range []int{2, 3, 5, 8} {
		for _, segs := range []int{0, 2, 7, 33} {
			got, err := ReplayTraceSegmented(tr, cfg, SegmentOptions{Workers: workers, Segments: segs})
			if err != nil {
				t.Fatalf("workers=%d segs=%d: %v", workers, segs, err)
			}
			if first == nil {
				first = got
				continue
			}
			if *got != *first {
				t.Errorf("workers=%d segs=%d: result differs\ngot:   %+v\nfirst: %+v", workers, segs, *got, *first)
			}
		}
	}
}

// TestSegmentedRejectsTimingCoupledFetch pins the gate: the trace cache and
// multi-block fetch couple architectural state to timing, so CanSegment
// refuses them and the engine falls back to the sequential replay (still
// returning the exact result).
func TestSegmentedRejectsTimingCoupledFetch(t *testing.T) {
	tcCfg := Config{TraceCache: TraceCacheConfig{Sets: 64, Ways: 4}}
	mbCfg := Config{MultiBlock: MultiBlockConfig{Blocks: 4}}
	if CanSegment(tcCfg) {
		t.Error("CanSegment accepted a trace-cache config")
	}
	if CanSegment(mbCfg) {
		t.Error("CanSegment accepted a multi-block config")
	}
	if !CanSegment(Config{}) || !CanSegment(Config{PerfectBP: true}) {
		t.Error("CanSegment rejected a plain config")
	}
	tr := segTrace(t, 7200, isa.Conventional)
	for _, cfg := range []Config{tcCfg, mbCfg} {
		want, err := ReplayTrace(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReplayTraceSegmented(tr, cfg, SegmentOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("fallback result differs\ngot:  %+v\nwant: %+v", *got, *want)
		}
	}
}

// TestSegmentedCancellation pins that a mid-replay cancellation surfaces
// ctx.Err() promptly and drains every goroutine the engine started.
func TestSegmentedCancellation(t *testing.T) {
	tr := segTrace(t, 7300, isa.BlockStructured)
	cfg := Config{ICache: cache.Config{SizeBytes: 2048, Ways: 4}}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayTraceSegmentedContext(ctx, tr, cfg, SegmentOptions{Workers: 4, Segments: 8}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ReplayTraceSegmentedContext(ctx, tr, cfg, SegmentOptions{Workers: 4, Segments: 8})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("mid-replay cancel: err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("segmented replay did not return after cancellation")
	}

	// Give drained goroutines a moment to exit, then verify nothing leaked.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestSegmentedMatchesSweeps closes the loop with the fused sweep engine:
// per-configuration segmented replays must agree field-for-field with the
// fused sweep over the same grid (which is itself pinned against
// SimulateMany), so every engine in the package answers identically.
func TestSegmentedMatchesSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestSegmentedMatchesReplay in short mode")
	}
	tr := segTrace(t, 7400, isa.BlockStructured)
	cfgs := sweepGrid(false)
	want, err := Sweep(tr, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		got, err := ReplayTraceSegmented(tr, cfg, SegmentOptions{Workers: 4, Segments: 6})
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if *got != *want[i] {
			t.Errorf("config %d (%dB): segmented differs from fused sweep\nsegmented: %+v\nsweep:     %+v",
				i, cfg.ICache.SizeBytes, *got, *want[i])
		}
	}
}

// TestSnapshotRestoreMidTrace is the checkpoint round-trip property at the
// Sim level: snapshot the architectural models mid-replay, keep replaying,
// then restore into a fresh Sim and replay the remainder — the restored
// run's architectural statistics must match the uninterrupted run exactly.
func TestSnapshotRestoreMidTrace(t *testing.T) {
	for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
		tr := segTrace(t, 7500, kind)
		cfg := Config{ICache: cache.Config{SizeBytes: 2048, Ways: 4}}
		n := tr.NumEvents()
		cut := n / 3

		full, err := New(tr.Program(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ck archCheckpoint
		idx := 0
		if err := tr.Replay(func(ev *emu.BlockEvent) error {
			if idx == cut {
				ck = archCheckpoint{ic: full.ic.Snapshot(), dc: full.dc.Snapshot(), pred: full.pred.Snapshot()}
			}
			idx++
			return full.OnBlock(ev)
		}); err != nil {
			t.Fatal(err)
		}
		want := full.Finish()

		resumed, err := New(tr.Program(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restoreCheckpoint(resumed, &ck); err != nil {
			t.Fatal(err)
		}
		cur := tr.CursorAt(cut)
		for ev := cur.Next(); ev != nil; ev = cur.Next() {
			if err := resumed.OnBlock(ev); err != nil {
				t.Fatal(err)
			}
		}
		got := resumed.Finish()
		if got.ICache != want.ICache || got.DCache != want.DCache || got.Bpred != want.Bpred {
			t.Errorf("%s: restored run diverges:\nrestored: ic=%+v dc=%+v bp=%+v\nfull:     ic=%+v dc=%+v bp=%+v",
				kind, got.ICache, got.DCache, got.Bpred, want.ICache, want.DCache, want.Bpred)
		}
	}
}

// TestFrontiersConvergeOnLaneState pins the stitch's convergence projection
// over the kernel's lane state: frontiers that differ by a uniform shift
// converge, a live register or FU count that differs does not, the sink
// slot (written, never read) is ignored, and a captured frontier restored
// into a fresh Sim converges with its source.
func TestFrontiersConvergeOnLaneState(t *testing.T) {
	prog := segTrace(t, 7500, isa.Conventional).Program()
	mk := func() *Sim {
		s, err := New(prog, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.release)
		return s
	}
	a, b := mk(), mk()
	if !frontiersConverge(a, b) {
		t.Fatal("two empty frontiers do not converge")
	}
	a.nextFetch, a.lastRetire, a.scr.regs[5] = 100, 103, 130
	b.nextFetch, b.lastRetire, b.scr.regs[5] = 40, 43, 70
	a.scr.ring.advance(100)
	b.scr.ring.advance(40)
	a.scr.ring.counts[102&a.scr.ring.mask] = 3
	b.scr.ring.counts[42&b.scr.ring.mask] = 3
	if !frontiersConverge(a, b) {
		t.Fatal("frontiers a uniform shift apart do not converge")
	}
	a.scr.regs[laneRegSink] = 999
	if !frontiersConverge(a, b) {
		t.Fatal("the sink slot, which no op reads, blocked convergence")
	}
	b.scr.regs[5] = 71
	if frontiersConverge(a, b) {
		t.Fatal("frontiers converge with a live register a cycle apart")
	}
	b.scr.regs[5] = 70
	b.scr.ring.counts[42&b.scr.ring.mask] = 2
	if frontiersConverge(a, b) {
		t.Fatal("frontiers converge with different FU occupancy")
	}
	c := mk()
	f := captureFrontier(a)
	restoreFrontier(c, &f)
	if !frontiersConverge(a, c) || c.nextFetch != a.nextFetch {
		t.Fatal("a restored frontier does not match its source")
	}
}
