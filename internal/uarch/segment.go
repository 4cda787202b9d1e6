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
//     frontiers' observable projections (see frontiersConverge); once they
//     match, every subsequent event in the lane evolves identically to the
//     true machine up to a uniform cycle shift d = A.nextFetch - B.nextFetch,
//     so the segment's true stall counters splice as
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
	"bsisa/internal/isa"
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
		fsw, rs, fsc, next, err := stitchSegment(ctx, t, cfg, tab, bounds[i], bounds[i+1], &ckpts[i], &front, lanes[i])
		if err != nil {
			return nil, fmt.Errorf("uarch: stitch at segment %d: %w", i, err)
		}
		l := lanes[i]
		res.Ops += l.res.Ops
		res.Blocks += l.res.Blocks
		res.FusedPairs += l.res.FusedPairs
		res.TrapMispredicts += l.res.TrapMispredicts
		res.FaultMispredicts += l.res.FaultMispredicts
		res.Misfetches += l.res.Misfetches
		res.FetchStallICache += l.res.FetchStallICache
		res.FetchStallWindow += fsw
		res.RecoveryStall += rs
		res.FetchStallControl += fsc
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
	l := &segLane{res: sim.res, front: captureFrontier(sim)}
	if last {
		fin := *sim.Finish()
		l.fin = &fin
	}
	return l, nil
}

// stitchSegment reconciles lane's canonical-start replay of events [lo, hi)
// with the true machine frontier f at lo. It returns the segment's true
// FetchStallWindow, RecoveryStall and FetchStallControl contributions — the
// three frontier-dependent stall counters — and the true frontier at hi. See
// the package comment for the argument.
func stitchSegment(ctx context.Context, t *emu.Trace, cfg Config, tab *Predecoded, lo, hi int, ck *archCheckpoint, f *frontier, lane *segLane) (fsw, rs, fsc int64, out frontier, err error) {
	mk := func() (*Sim, error) {
		s, err := newSim(t.Program(), cfg, tab)
		if err != nil {
			return nil, err
		}
		return s, restoreCheckpoint(s, ck)
	}
	a, err := mk()
	if err != nil {
		return 0, 0, 0, out, err
	}
	defer a.release()
	restoreFrontier(a, f)
	b, err := mk()
	if err != nil {
		return 0, 0, 0, out, err
	}
	replica := b
	defer replica.release()
	cur := t.CursorAt(lo)
	for i := lo; i < hi; i++ {
		if (i-lo)&(segChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, 0, out, err
			}
		}
		ev := cur.Next()
		if err := a.OnBlock(ev); err != nil {
			return 0, 0, 0, out, err
		}
		if b == nil {
			continue
		}
		// b deterministically replicates the lane's own replay, so its state
		// after this event IS the lane's state at the same point.
		if err := b.OnBlock(ev); err != nil {
			return 0, 0, 0, out, err
		}
		if frontiersConverge(a, b) {
			d := a.nextFetch - b.nextFetch
			fsw = a.res.FetchStallWindow + (lane.res.FetchStallWindow - b.res.FetchStallWindow)
			rs = a.res.RecoveryStall + (lane.res.RecoveryStall - b.res.RecoveryStall)
			fsc = a.res.FetchStallControl + (lane.res.FetchStallControl - b.res.FetchStallControl)
			out = lane.front
			out.shift(d)
			return fsw, rs, fsc, out, nil
		}
		if i-lo+1 >= segMatchLimit {
			b = nil
		}
	}
	// No convergence within the segment: a re-timed all of it from the true
	// frontier — the sequential fallback, exact by construction.
	return a.res.FetchStallWindow, a.res.RecoveryStall, a.res.FetchStallControl, captureFrontier(a), nil
}

// frontier is a raw copy of a Sim's timing state: everything the kernel
// reads or writes besides the outcome source and the Result accumulators.
// Register-ready times cover the architectural registers only: the kernel
// never reads the sink slot, and the shadow table is rebuilt from the
// architectural one on every fault misprediction.
type frontier struct {
	cycle      int64
	nextFetch  int64
	lastRetire int64
	regs       [isa.NumRegs]int64
	win        []windowEntry // live in-flight blocks, oldest first
	winOps     int
	fuBase     int64
	fuCounts   []uint8 // FU busy counts for cycles [fuBase, fuBase+len)
}

// captureFrontier copies s's timing state out. The result shares nothing
// with the Sim.
func captureFrontier(s *Sim) frontier {
	f := frontier{
		cycle:      s.cycle,
		nextFetch:  s.nextFetch,
		lastRetire: s.lastRetire,
		winOps:     s.winOps,
		fuBase:     s.scr.ring.base,
	}
	copy(f.regs[:], s.scr.regs[:isa.NumRegs])
	f.win = make([]windowEntry, s.winLen)
	for k := 0; k < s.winLen; k++ {
		i := s.winHead + k
		if i >= len(s.win) {
			i -= len(s.win)
		}
		f.win[k] = s.win[i]
	}
	r := &s.scr.ring
	last := int64(-1)
	for c := r.base; c < r.base+int64(len(r.counts)); c++ {
		if r.counts[c&r.mask] != 0 {
			last = c
		}
	}
	if last >= 0 {
		f.fuCounts = make([]uint8, last-r.base+1)
		for c := r.base; c <= last; c++ {
			f.fuCounts[c-r.base] = r.counts[c&r.mask]
		}
	}
	return f
}

// shift translates every cycle-valued component by d (the uniform shift
// between a lane's canonical clock and the true machine clock).
func (f *frontier) shift(d int64) {
	f.cycle += d
	f.nextFetch += d
	f.lastRetire += d
	f.fuBase += d
	for i := range f.regs {
		f.regs[i] += d
	}
	for i := range f.win {
		f.win[i].retire += d
	}
}

// restoreFrontier installs f into a freshly built Sim (whose frontier is the
// canonical zero state).
func restoreFrontier(s *Sim, f *frontier) {
	s.cycle, s.nextFetch, s.lastRetire = f.cycle, f.nextFetch, f.lastRetire
	copy(s.scr.regs[:isa.NumRegs], f.regs[:])
	s.winHead, s.winLen, s.winOps = 0, len(f.win), f.winOps
	copy(s.win, f.win)
	r := &s.scr.ring
	r.base = f.fuBase
	if n := int64(len(f.fuCounts)); n > 0 {
		if n > int64(len(r.counts)) {
			r.grow(f.fuBase + n - 1)
		}
		for i, c := range f.fuCounts {
			r.counts[(f.fuBase+int64(i))&r.mask] = c
		}
	}
}

// normCycle truncates a cycle value at a base: any value at or below the
// base is observationally equivalent to the base itself (see
// frontiersConverge), so all such values map to zero.
func normCycle(x, base int64) int64 {
	if x <= base {
		return 0
	}
	return x - base
}

// fuCountAt reads the FU busy count at an absolute cycle, treating cycles
// outside the ring's live span as free.
func fuCountAt(r *laneRing, c int64) uint8 {
	if c < r.base || c-r.base >= int64(len(r.counts)) {
		return 0
	}
	return r.counts[c&r.mask]
}

// frontiersConverge reports whether two Sims' timing frontiers are
// observationally identical up to the uniform cycle shift
// a.nextFetch - b.nextFetch. Each frontier is compared in a normalized
// projection with base = its own nextFetch; the projection is exactly the
// state that can still influence future events:
//
//   - lastRetire at or below the base is dead: every future block's
//     completion satisfies done >= issue >= nextFetch, so
//     retire = max(done+1, lastRetire+1) cannot be decided by it.
//   - register-ready times at or below the base are dead: a future
//     operation's ready time is max(issue, regReady[...]) with
//     issue >= nextFetch.
//   - window entries whose retire is at or below the base are dead: window
//     retire times are strictly increasing, so they form a prefix, and the
//     fetch stall loop pops such entries without stalling whichever branch
//     it takes (head <= fetch holds for them on every path).
//   - FU busy counts below the base are dead: the ring's advance clears all
//     slots below each event's fetch cycle before any claim, and claims
//     happen at ready >= issue >= nextFetch.
//
// Equal projections therefore guarantee identical evolution (against
// identical architectural state and events) shifted by the base difference.
func frontiersConverge(a, b *Sim) bool {
	ba, bb := a.nextFetch, b.nextFetch
	if normCycle(a.lastRetire, ba) != normCycle(b.lastRetire, bb) {
		return false
	}
	// Windows: skip each side's dead prefix, then compare live entries.
	la, lb := a.winLen, b.winLen
	ha, hb := a.winHead, b.winHead
	for la > 0 && a.win[ha].retire <= ba {
		if ha++; ha == len(a.win) {
			ha = 0
		}
		la--
	}
	for lb > 0 && b.win[hb].retire <= bb {
		if hb++; hb == len(b.win) {
			hb = 0
		}
		lb--
	}
	if la != lb {
		return false
	}
	for k := 0; k < la; k++ {
		ia, ib := ha+k, hb+k
		if ia >= len(a.win) {
			ia -= len(a.win)
		}
		if ib >= len(b.win) {
			ib -= len(b.win)
		}
		if a.win[ia].ops != b.win[ib].ops || a.win[ia].retire-ba != b.win[ib].retire-bb {
			return false
		}
	}
	for r := 0; r < isa.NumRegs; r++ {
		if normCycle(a.scr.regs[r], ba) != normCycle(b.scr.regs[r], bb) {
			return false
		}
	}
	ra, rb := &a.scr.ring, &b.scr.ring
	spanA := ra.base + int64(len(ra.counts)) - ba
	spanB := rb.base + int64(len(rb.counts)) - bb
	span := spanA
	if spanB > span {
		span = spanB
	}
	for o := int64(0); o < span; o++ {
		if fuCountAt(ra, ba+o) != fuCountAt(rb, bb+o) {
			return false
		}
	}
	return true
}
