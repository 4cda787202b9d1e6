// Segment-parallel trace replay.
//
// A single timing replay walks the committed stream on one goroutine, so a
// long-trace request is bound by trace length no matter how many cores the
// box has. This engine splits the trace into contiguous segments and times
// them concurrently, exactly:
//
//  1. A warm pass walks the stream once through a live Sim's outcome source
//     — its icache/dcache/predictor models, with no timing kernel — and
//     captures an exact architectural checkpoint (cache.Snapshot,
//     bpred.State) at every segment boundary. This is sound because the
//     outcome source's operation sequence (fetch icache probes, committed
//     dcache accesses, predict/update, wrong-path pollution probes) depends
//     only on the committed stream and the configuration, never on timing
//     state — provided the trace cache and multi-block fetch are disabled,
//     which is exactly what CanSegment gates (both take the fetch cycle as
//     an input to their architectural behavior).
//
//  2. Per-segment timing lanes run concurrently on a bounded worker pool,
//     each a full Sim restored from its boundary checkpoint but starting
//     from the canonical empty timing frontier (cycle zero, empty window and
//     FU ring). Every timing-independent Result field a lane accumulates —
//     retired ops/blocks, misprediction counts, cache/predictor statistics,
//     FetchStallICache — is therefore exact for its segment; only the three
//     frontier-dependent quantities (Cycles via lastRetire,
//     FetchStallWindow, RecoveryStall) carry a boundary error from the
//     missing pipeline occupancy. Lanes launch as their checkpoints land, so
//     lane execution overlaps the warm pass.
//
//  3. A sequential stitch repairs the boundaries. Carrying the true frontier
//     from segment to segment (lane 0's canonical start is the true start),
//     it re-times each boundary with two lockstep resimulations over the
//     same events and identical architectural state: A from the true
//     frontier, B from the canonical frontier — B deterministically
//     replicates the lane's own prefix. After each event it compares the two
//     frontiers' observable projections (frontiersConverge, with the
//     kernel's shift-covariance argument in kernel.go); once they match,
//     every subsequent event in the lane evolves identically to the true
//     machine up to a uniform cycle shift d = A.nextFetch - B.nextFetch, so
//     the segment's true counters splice as
//     A_at_match + (lane_final - B_at_match) and the true end-of-segment
//     frontier is the lane's shifted by d. If the frontiers have not
//     converged within segMatchLimit events, B is dropped and A simply
//     re-times the rest of the segment from the true frontier — the
//     per-segment sequential fallback. Exactness is therefore unconditional;
//     convergence speed only affects the speedup.
//
// The reduce is deterministic and order-independent: lane results are
// combined by segment index, and every spliced quantity is a pure function
// of the trace and the configuration, so the Result is field-for-field
// identical to ReplayTrace at every worker count and segment size.
package uarch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
)

const (
	// segChunk is how many events lanes and the warm pass process between
	// context checks (matches emu's replayChunk).
	segChunk = 4096
	// segMinEvents is the smallest segment worth a lane: below this the
	// checkpoint and stitch overheads dominate the replay itself.
	segMinEvents = 8192
	// segMatchLimit caps how many events the stitch steps the canonical
	// replica before giving up on convergence for a boundary and re-timing
	// the rest of the segment sequentially.
	segMatchLimit = 8192
)

// CanSegment reports whether a configuration is eligible for the
// segment-parallel replay engine. The trace cache and multi-block fetch take
// the fetch cycle as an input to their architectural behavior (trace-window
// sharing, fetch grouping), so under either the warm pass's timing-free walk
// could not reproduce the icache stream and checkpoints would be wrong;
// everything else — any cache/predictor geometry, perfect branch prediction
// — segments exactly.
func CanSegment(cfg Config) bool {
	cfg = cfg.withDefaults()
	return !cfg.TraceCache.Enabled() && !cfg.MultiBlock.Enabled()
}

// SegmentObserver receives segment-lane progress from a segmented replay,
// for service metrics (bsimd's segment-queue gauge and per-segment latency
// histogram). Methods may be called from multiple goroutines.
type SegmentObserver interface {
	// SegmentsQueued reports the total number of segment lanes about to be
	// scheduled, once per replay before any lane starts.
	SegmentsQueued(n int)
	// SegmentStart reports a lane leaving the queue and beginning to replay.
	SegmentStart()
	// SegmentDone reports a lane finishing, with its replay wall time.
	SegmentDone(d time.Duration)
}

// SegmentOptions parameterizes ReplayTraceSegmented.
type SegmentOptions struct {
	// Workers bounds the lane pool; <= 0 means GOMAXPROCS.
	Workers int
	// Segments is the number of trace segments; <= 0 picks 4x Workers
	// (load-balancing slack), capped so no segment falls under segMinEvents.
	Segments int
	// Observer, when non-nil, receives per-segment progress.
	Observer SegmentObserver
}

// archCheckpoint is the exact architectural state at a segment boundary.
type archCheckpoint struct {
	ic, dc *cache.Snapshot
	pred   bpred.State // nil under PerfectBP
}

// errSegmentAborted is the lane-side sentinel for a checkpoint that never
// landed because the warm pass failed; the driver replaces it with the warm
// pass's real error.
var errSegmentAborted = errors.New("uarch: segment checkpoint unavailable")

// ReplayTraceSegmented is ReplayTrace parallelized across trace segments.
// The result is field-for-field identical to ReplayTrace for every worker
// count and segment count; configurations CanSegment rejects (and degenerate
// splits) fall back to the sequential replay.
func ReplayTraceSegmented(t *emu.Trace, cfg Config, opt SegmentOptions) (*Result, error) {
	return ReplayTraceSegmentedContext(context.Background(), t, cfg, opt)
}

// ReplayTraceSegmentedContext is ReplayTraceSegmented with cooperative
// cancellation: the warm pass, every lane and the stitch check ctx between
// event chunks, and the call returns with every goroutine drained.
func ReplayTraceSegmentedContext(ctx context.Context, t *emu.Trace, cfg Config, opt SegmentOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := t.NumEvents()
	segs := opt.Segments
	if segs <= 0 {
		// Auto: a few segments per worker for load balancing, but never so
		// many that checkpoint/stitch overhead dominates tiny segments.
		segs = 4 * workers
		if maxSegs := n / segMinEvents; segs > maxSegs {
			segs = maxSegs
		}
	} else if segs > n {
		// More segments than events degenerates; one event per segment is
		// the finest meaningful split.
		segs = n
	}
	if !CanSegment(cfg) || workers <= 1 || segs <= 1 {
		return ReplayTraceContext(ctx, t, cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Every Sim of the request — warm pass, lanes, stitch replicas — runs on
	// one predecoded table.
	tab := flatten(t.Program(), cfg.EffectiveIssueWidth())

	// bounds[i] is the first event of segment i; segment i covers
	// [bounds[i], bounds[i+1]). The split is even and independent of the
	// worker count.
	bounds := make([]int, segs+1)
	for i := range bounds {
		bounds[i] = i * n / segs
	}

	// Warm pass, concurrent with the lanes: ready[i] closes once ckpts[i]
	// is captured, releasing lane i. Lane 0 needs no checkpoint.
	ckpts := make([]archCheckpoint, segs)
	ready := make([]chan struct{}, segs)
	for i := 1; i < segs; i++ {
		ready[i] = make(chan struct{})
	}
	wctx, cancelWarm := context.WithCancel(ctx)
	defer cancelWarm()
	warmDone := make(chan struct{})
	var warmErr error
	go func() {
		defer close(warmDone)
		closed := 0
		warmErr = warmCheckpoints(wctx, t, cfg, tab, bounds, func(i int, ck archCheckpoint) {
			ckpts[i] = ck
			close(ready[i])
			closed = i
		})
		// On failure release every still-waiting lane; they observe the
		// missing checkpoint and surface errSegmentAborted.
		for i := closed + 1; i < segs; i++ {
			close(ready[i])
		}
	}()

	obs := opt.Observer
	if obs != nil {
		obs.SegmentsQueued(segs)
	}
	lanes := make([]*segLane, segs)
	err := fanOut(ctx, segs, workers, func(i int) error {
		var ck *archCheckpoint
		if i > 0 {
			select {
			case <-ready[i]:
			case <-ctx.Done():
				return ctx.Err()
			}
			if ckpts[i].ic == nil {
				return errSegmentAborted
			}
			ck = &ckpts[i]
		}
		if obs != nil {
			obs.SegmentStart()
		}
		start := time.Now()
		l, err := runSegmentLane(ctx, t, cfg, tab, bounds[i], bounds[i+1], ck, i == segs-1)
		if err != nil {
			return fmt.Errorf("uarch: segment %d: %w", i, err)
		}
		lanes[i] = l
		if obs != nil {
			obs.SegmentDone(time.Since(start))
		}
		return nil
	})
	if err != nil {
		cancelWarm()
	}
	<-warmDone
	if errors.Is(err, errSegmentAborted) && warmErr != nil {
		err = warmErr
	}
	if err != nil {
		return nil, err
	}

	// Stitch: lane 0's canonical start is the true start, so its counters
	// and frontier are exact as-is; each later boundary is reconciled in
	// order, carrying the true frontier forward.
	res := lanes[0].res
	front := lanes[0].front
	for i := 1; i < segs; i++ {
		seg, next, err := stitchSegment(ctx, t, cfg, tab, bounds[i], bounds[i+1], &ckpts[i], &front, lanes[i])
		if err != nil {
			return nil, fmt.Errorf("uarch: stitch at segment %d: %w", i, err)
		}
		res.addCounters(&seg, &Result{})
		front = next
	}
	// The last lane's restored models ran to the end of the trace, so its
	// Finish carries the exact cumulative cache/predictor statistics.
	fin := lanes[segs-1].fin
	res.Cycles = front.lastRetire
	res.ICache, res.DCache, res.Bpred = fin.ICache, fin.DCache, fin.Bpred
	return &res, nil
}

// warmCheckpoints walks events [0, bounds[len(bounds)-2]] through a live
// Sim's outcome source alone — the fetch probe and resolve, no timing —
// invoking capture with the exact architectural state at the start of every
// segment but the first.
func warmCheckpoints(ctx context.Context, t *emu.Trace, cfg Config, tab *Predecoded, bounds []int, capture func(i int, ck archCheckpoint)) error {
	sim, err := newSim(t.Program(), cfg, tab)
	if err != nil {
		return err
	}
	defer sim.release()
	snap := func() archCheckpoint {
		ck := archCheckpoint{ic: sim.ic.Snapshot(), dc: sim.dc.Snapshot()}
		if sim.pred != nil {
			ck.pred = sim.pred.Snapshot()
		}
		return ck
	}
	nseg := len(bounds) - 1
	next := 1
	stop := bounds[nseg-1] // events past the last boundary seed no checkpoint
	cur := t.CursorAt(0)
	for i := 0; i < stop; i++ {
		if i&(segChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for next < nseg && bounds[next] == i {
			capture(next, snap())
			next++
		}
		ev := cur.Next()
		sim.ic.AccessRange(ev.Block.Addr, ev.Block.Size)
		sim.resolve(ev)
	}
	for next < nseg {
		capture(next, snap())
		next++
	}
	return nil
}

// segLane is one segment's canonical-start replay outcome.
type segLane struct {
	res   Result   // per-segment accumulators (counters only)
	front frontier // final timing frontier on the canonical-start basis
	fin   *Result  // Finish() result, recorded for the last lane only
}

// restoreCheckpoint rewinds a fresh Sim's architectural models to ck.
func restoreCheckpoint(s *Sim, ck *archCheckpoint) error {
	if ck == nil {
		return nil
	}
	if err := s.ic.Restore(ck.ic); err != nil {
		return err
	}
	if err := s.dc.Restore(ck.dc); err != nil {
		return err
	}
	if ck.pred != nil {
		if err := s.pred.Restore(ck.pred); err != nil {
			return err
		}
	}
	return nil
}

// runSegmentLane replays events [lo, hi) through a fresh Sim restored from
// ck (nil for the first segment), starting from the canonical empty timing
// frontier.
func runSegmentLane(ctx context.Context, t *emu.Trace, cfg Config, tab *Predecoded, lo, hi int, ck *archCheckpoint, last bool) (*segLane, error) {
	sim, err := newSim(t.Program(), cfg, tab)
	if err != nil {
		return nil, err
	}
	defer sim.release()
	if err := restoreCheckpoint(sim, ck); err != nil {
		return nil, err
	}
	cur := t.CursorAt(lo)
	for i := lo; i < hi; i++ {
		if (i-lo)&(segChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := sim.OnBlock(cur.Next()); err != nil {
			return nil, err
		}
	}
	l := &segLane{res: sim.res}
	captureFrontier(&l.front, sim)
	if last {
		fin := *sim.Finish()
		l.fin = &fin
	}
	return l, nil
}

// stitchSegment reconciles lane's canonical-start replay of events [lo, hi)
// with the true machine frontier f at lo. It returns the segment's true
// counter contributions and the true frontier at hi. See the package comment
// for the argument.
func stitchSegment(ctx context.Context, t *emu.Trace, cfg Config, tab *Predecoded, lo, hi int, ck *archCheckpoint, f *frontier, lane *segLane) (seg Result, out frontier, err error) {
	mk := func() (*Sim, error) {
		s, err := newSim(t.Program(), cfg, tab)
		if err != nil {
			return nil, err
		}
		return s, restoreCheckpoint(s, ck)
	}
	a, err := mk()
	if err != nil {
		return seg, out, err
	}
	defer a.release()
	restoreFrontier(a, f)
	b, err := mk()
	if err != nil {
		return seg, out, err
	}
	replica := b
	defer replica.release()
	cur := t.CursorAt(lo)
	for i := lo; i < hi; i++ {
		if (i-lo)&(segChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return seg, out, err
			}
		}
		ev := cur.Next()
		if err := a.OnBlock(ev); err != nil {
			return seg, out, err
		}
		if b == nil {
			continue
		}
		// b deterministically replicates the lane's own replay, so its state
		// after this event IS the lane's state at the same point.
		if err := b.OnBlock(ev); err != nil {
			return seg, out, err
		}
		if frontiersConverge(a, b) {
			// From here on the lane is the true machine shifted by d: the
			// segment's counters are a's so far plus the lane's from here.
			seg = a.res
			seg.addCounters(&lane.res, &b.res)
			out = lane.front
			out.shift(a.nextFetch - b.nextFetch)
			return seg, out, nil
		}
		if i-lo+1 >= segMatchLimit {
			b = nil
		}
	}
	// No convergence within the segment: a re-timed all of it from the true
	// frontier — the sequential fallback, exact by construction.
	captureFrontier(&out, a)
	return a.res, out, nil
}
