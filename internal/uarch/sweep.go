package uarch

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// This file implements the unified multi-axis sweep engine: the timing
// kernel's second outcome source (kernel.go). A sweep runs the
// same trace under N configurations drawn from a config grid whose axes are
// icache size, predictor tables, and core geometry (issue width, window
// size, FU count, front-end depth, latencies). Under SimulateMany that costs
// N full replays, but almost all of the work those replays do is identical:
// the committed stream fixes the fetch order, so every predictor variant
// sees the same history (predictor tables never observe timing), the dcache
// sees the same address sequence, each config's mispredictions classify the
// same way given its predictor, and the icache address stream — fetches plus
// wrong-path pollution — depends only on which predictor the config uses;
// only the per-config *outcomes* and the stall arithmetic differ.
//
// Sweep therefore splits the grid into one shared enrichment replay and N
// cheap per-config timing lanes:
//
//   - Pass A replays the trace once, driving the real dcache (shared: load
//     outcomes are config-independent) and a bpred.Bank holding one lane per
//     *distinct* predictor config — the grid's predictor classes (one class
//     with no mispredictions under perfect prediction or a backend without
//     a predictor). Each class's mispredictions are classified and stored
//     sparsely (ascending event indices, kinds, wrong-path blocks), and the
//     committed and wrong-path line counts are accumulated for
//     perfect-icache accounting.
//   - Pass B walks the committed block stream once per class through a
//     cache.StackDist profiler fed with that class's pollution stream,
//     yielding exact per-event fetch miss counts for every swept icache
//     size simultaneously. Classes profile independently (pollution alters
//     LRU state), but every class shares pass A and the block tables.
//   - Each lane then runs only the timing kernel — window, FU scoreboard,
//     rename ready times, retire, recovery, serialization — against the
//     precomputed outcomes of its (class, icache level) pair. Core-geometry
//     axes need no shared state at all: they are plain per-lane knobs of the
//     kernel.
//
// A lane runs the same kernel as a live Sim, so lane results are identical,
// field for field, to ReplayTrace under the same configuration; sweep_test.go
// checks the two outcome sources against each other over every backend,
// including cross-axis grids and per-axis marginals.

// sweepCancelChunk is how many lockstep events a lane group (or enrichment
// walk) processes between context checks (power of two; mirrors emu's replay
// chunking).
const sweepCancelChunk = 4096

// sweepNoMp is the nextMp sentinel for a lane with no mispredictions left.
const sweepNoMp = ^uint32(0)

// sweepClass holds everything the enrichment passes compute for one
// predictor class — one distinct Predictor config in the grid (or the single
// implicit class when nothing predicts). Lanes read it concurrently and never
// write it.
type sweepClass struct {
	// Sparse mispredict streams: ascending event indices, a parallel kind
	// stream, and (fault kinds only, same order) the wrongly predicted
	// block. Mispredicts are a few percent of events, so this replaces
	// numEvents-sized dense tables with short arrays a lane consumes
	// through a cursor.
	mpEv       []uint32
	mpKind     []uint8
	faultBlock []isa.BlockID

	// Icache outcomes at every profiled level. fetchMiss is transposed —
	// [level*numEvents + event] — so each lane walks one contiguous
	// per-level run; wrongMiss is per level, per fault ordinal, for the
	// same locality reason. Both are nil when no lane of this class has a
	// real icache.
	fetchMiss []uint8
	wrongMiss [][]uint8
	icStats   []cache.Stats // per level

	// accesses is the class's total icache line traffic (committed fetches
	// plus this class's wrong-path pollution): what a perfect icache
	// reports, since it counts accesses but never misses.
	accesses int64

	bp bpred.Stats
}

// sweepShared is the config-independent half of the enrichment output.
type sweepShared struct {
	// ldMiss is 1 per committed load that misses the shared dcache, 0 on a
	// hit: every lane's committed-load outcome stream.
	ldMiss  []uint8
	dcStats cache.Stats
}

// sweepEnrich carries pass A outputs that only pass B consumes.
type sweepEnrich struct {
	sh *sweepShared
	// poll is, per class and parallel to mpEv, the wrong-path block the
	// class fetches at that mispredict (NoBlock when nothing is fetched:
	// misfetches, nonexistent trap targets, fault-no-block).
	poll [][]isa.BlockID
}

// sweepLane is one configuration's view of the shared enrichment: the
// outcome source of a Sim that runs as a sweep lane. fm and wm are this
// lane's level runs of its class's fetchMiss/wrongMiss (nil for a perfect
// icache).
type sweepLane struct {
	sh       *sweepShared
	cls      *sweepClass
	lp       []laneBlock // the lane's table, for wrongly fetched variants
	fm       []uint8
	wm       []uint8
	level    int    // profiler level of this config's icache size; -1 = perfect
	mpOff    int    // cursor into cls.mpEv/mpKind
	faultOff int    // cursor into cls.faultBlock / wm
	nextMp   uint32 // cls.mpEv[mpOff], or sweepNoMp when exhausted
	mp       mispredict
}

// enrichSweepA replays the trace once, training the whole predictor-class
// Bank (nil classCfgs when nothing predicts) and the shared dcache, and
// recording per-class sparse mispredict streams, pollution blocks, and line
// traffic. It drives the dcache and classifies mispredictions exactly as a
// live Sim's resolve does. classes has one entry per predictor class,
// already allocated; lp is the program's table, for its memory flags.
func enrichSweepA(ctx context.Context, t *emu.Trace, base Config, lp []laneBlock, family backend.PredictorSel, classCfgs []bpred.Config, classes []*sweepClass) (*sweepEnrich, error) {
	dc, err := cache.New(base.DCache)
	if err != nil {
		return nil, fmt.Errorf("uarch: sweep: dcache: %w", err)
	}
	prog := t.Program()
	var bank *bpred.Bank
	var preds []isa.BlockID
	if len(classCfgs) > 0 {
		bank = bpred.NewBank(family == backend.PredBSA, classCfgs)
		preds = make([]isa.BlockID, bank.Len())
	}

	// Per-block line counts at the shared icache line size, so perfect-cache
	// access totals fall out of pass A without touching a profiler; the
	// count mirrors Cache.AccessRange (a zero-size block still touches its
	// first line).
	shift := uint32(bits.TrailingZeros32(uint32(base.ICache.LineBytes)))
	lineCnt := make([]int64, len(prog.Blocks))
	for id, b := range prog.Blocks {
		if b == nil {
			continue
		}
		sz := b.Size
		if sz == 0 {
			sz = 1
		}
		lineCnt[id] = int64((b.Addr+sz-1)>>shift - b.Addr>>shift + 1)
	}

	en := &sweepEnrich{
		sh:   &sweepShared{},
		poll: make([][]isa.BlockID, len(classes)),
	}
	sh := en.sh
	var commitLines int64
	pollLines := make([]int64, len(classes))
	ei := 0
	err = t.ReplayContext(ctx, func(ev *emu.BlockEvent) error {
		b := ev.Block
		commitLines += lineCnt[b.ID]
		if lp[b.ID].mem {
			sh.ldMiss = loadOutcomes(sh.ldMiss, dc, b, ev.MemAddrs)
		}
		if ev.Next != isa.NoBlock && bank != nil {
			bank.Step(b, ev.Next, ev.Taken, ev.SuccIdx, preds)
			for c, predicted := range preds {
				if predicted == ev.Next {
					continue
				}
				cls := classes[c]
				kind, wb := classify(prog, b, predicted, ev.Next)
				if wb != isa.NoBlock {
					pollLines[c] += lineCnt[wb]
				}
				if kind == mpFault {
					cls.faultBlock = append(cls.faultBlock, wb)
				}
				cls.mpEv = append(cls.mpEv, uint32(ei))
				cls.mpKind = append(cls.mpKind, kind)
				en.poll[c] = append(en.poll[c], wb)
			}
		}
		ei++
		return nil
	})
	if err != nil {
		return nil, err
	}
	sh.dcStats = dc.Stats()
	for c, cls := range classes {
		cls.accesses = commitLines + pollLines[c]
		if bank != nil {
			cls.bp = bank.LaneStats(c)
		}
	}
	return en, nil
}

// enrichSweepB walks the committed block stream once through a class's
// stack-distance profiler, interleaving that class's wrong-path pollution at
// the recorded mispredict events, and fills the class's per-level fetch/
// wrong miss tables and stats.
func enrichSweepB(ctx context.Context, t *emu.Trace, prof *cache.StackDist, cls *sweepClass, poll []isa.BlockID) error {
	prog := t.Program()
	ids := t.BlockIDs()
	ne := len(ids)
	levels := prof.Levels()
	cls.fetchMiss = make([]uint8, ne*levels)
	cls.wrongMiss = make([][]uint8, levels)
	scratch := make([]int, levels)
	mpOff := 0
	for ei, id := range ids {
		if ei&(sweepCancelChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b := prog.Blocks[id]
		clear(scratch)
		prof.AccessRange(b.Addr, b.Size, scratch)
		for l, m := range scratch {
			if m > 255 {
				return fmt.Errorf("uarch: sweep: block spans %d missing lines, exceeds encoding", m)
			}
			cls.fetchMiss[l*ne+ei] = uint8(m)
		}
		if mpOff < len(cls.mpEv) && cls.mpEv[mpOff] == uint32(ei) {
			kind := cls.mpKind[mpOff]
			wb := poll[mpOff]
			mpOff++
			switch kind {
			case mpTrap:
				if wb != isa.NoBlock {
					pb := prog.Blocks[wb]
					prof.AccessRange(pb.Addr, pb.Size, nil)
				}
			case mpFault:
				pb := prog.Blocks[wb]
				clear(scratch)
				prof.AccessRange(pb.Addr, pb.Size, scratch)
				for l, m := range scratch {
					if m > 255 {
						return fmt.Errorf("uarch: sweep: block spans %d missing lines, exceeds encoding", m)
					}
					cls.wrongMiss[l] = append(cls.wrongMiss[l], uint8(m))
				}
			}
		}
	}
	cls.icStats = make([]cache.Stats, levels)
	for l := 0; l < levels; l++ {
		cls.icStats[l] = prof.StatsAt(l)
	}
	return nil
}

// fetchMiss is the lane's outcome for event ei's fetch probe.
func (sw *sweepLane) fetchMiss(ei int) int {
	if sw.fm == nil {
		return 0
	}
	return int(sw.fm[ei])
}

// mispredictAt is the lane's misprediction outcome for event ei, nil when
// its class predicted right. Lanes ask once per event, in order; the check
// inlines into the lockstep loop and leaves the rare mispredicting event to
// consume.
func (sw *sweepLane) mispredictAt(ei int) *mispredict {
	if uint32(ei) != sw.nextMp {
		return nil
	}
	return sw.consume()
}

// consume takes the lane's next misprediction off its class streams.
func (sw *sweepLane) consume() *mispredict {
	cls := sw.cls
	sw.mp = mispredict{kind: cls.mpKind[sw.mpOff]}
	sw.mpOff++
	if sw.mpOff < len(cls.mpEv) {
		sw.nextMp = cls.mpEv[sw.mpOff]
	} else {
		sw.nextMp = sweepNoMp
	}
	if sw.mp.kind == mpFault {
		sw.mp.wrong = &sw.lp[cls.faultBlock[sw.faultOff]]
		if sw.wm != nil {
			sw.mp.wrongMiss = int(sw.wm[sw.faultOff])
		}
		sw.faultOff++
	}
	return &sw.mp
}

// sweepFinish is Finish for a lane: shared statistics are copied into the
// per-config result. A perfect icache reports the class's line accesses
// (committed fetches plus that class's pollution) with zero misses, exactly
// like a live perfect cache.
func (s *Sim) sweepFinish() *Result {
	s.res.Cycles = s.lastRetire
	sw := s.sw
	if sw.level >= 0 {
		s.res.ICache = sw.cls.icStats[sw.level]
	} else {
		s.res.ICache = cache.Stats{Accesses: sw.cls.accesses}
	}
	s.res.DCache = sw.sh.dcStats
	s.res.Bpred = sw.cls.bp
	return &s.res
}

// normalizeSweepConfigs applies Config and cache-geometry defaults so
// equality comparison is meaningful.
func normalizeSweepConfigs(cfgs []Config) []Config {
	norm := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		cfg.ICache = cfg.ICache.Normalize()
		cfg.DCache = cfg.DCache.Normalize()
		norm[i] = cfg
	}
	return norm
}

// stripSweepAxes zeroes the swept axes of a normalized config, leaving only
// the fields every lane must share: icache geometry (ways, line size),
// dcache config, perfect-BP mode, and the fetch rivals.
func stripSweepAxes(cfg Config) Config {
	cfg.ICache.SizeBytes = 0
	cfg.Predictor = bpred.Config{}
	cfg.IssueWidth = 0
	cfg.WindowBlocks = 0
	cfg.WindowOps = 0
	cfg.NumFUs = 0
	cfg.FrontEndDepth = 0
	cfg.L2Latency = 0
	cfg.FaultSquashPenalty = 0
	return cfg
}

// sweepCheck validates that normalized configs form a sweepable grid.
func sweepCheck(norm []Config) error {
	if len(norm) == 0 {
		return fmt.Errorf("uarch: sweep: no configurations")
	}
	ref := stripSweepAxes(norm[0])
	for i, cfg := range norm {
		if cfg.TraceCache.Enabled() || cfg.MultiBlock.Enabled() {
			return fmt.Errorf("uarch: sweep: config %d uses a trace cache or multi-block fetch", i)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("uarch: sweep: config %d: %w", i, err)
		}
		if stripSweepAxes(cfg) != ref {
			return fmt.Errorf("uarch: sweep: config %d differs from config 0 beyond the swept axes", i)
		}
	}
	return nil
}

// CanSweep reports whether Sweep accepts cfgs, and if not, why. A grid is
// sweepable when every configuration is valid, uses neither a trace cache
// nor multi-block fetch (their fetch paths observe per-config timing, which
// breaks the shared enrichment), and differs from config 0 only along the
// swept axes: ICache.SizeBytes
// (perfect allowed), the Predictor tables, and the core-geometry knobs
// (IssueWidth, WindowBlocks, WindowOps, NumFUs, FrontEndDepth, L2Latency,
// FaultSquashPenalty). Icache ways and line size, the dcache, and perfect-BP
// mode must be shared. Every program kind sweeps. Rejected grids fall back
// to SimulateMany, which accepts any valid configurations.
func CanSweep(cfgs []Config) (bool, string) {
	if err := sweepCheck(normalizeSweepConfigs(cfgs)); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// Sweep simulates one trace under every configuration of a multi-axis grid
// (see CanSweep for the axes), replaying the trace once — plus one cheap
// timing lane per configuration and one profiler walk per distinct
// predictor — instead of once per configuration. Results are returned in
// configuration order and are identical, field for field, to SimulateMany
// on the same inputs. workers bounds lane concurrency as in SimulateMany.
func Sweep(t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return SweepContext(context.Background(), t, cfgs, workers)
}

// SweepContext is Sweep with cooperative cancellation: the shared enrichment
// replay and every lockstep timing lane check ctx between trace chunks, and
// the call returns an error satisfying errors.Is(err, ctx.Err()) with all
// lane workers drained once the context is done.
func SweepContext(ctx context.Context, t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return SweepPredecoded(ctx, t, cfgs, workers, nil)
}

// SweepPredecoded is SweepContext reusing a prebuilt Predecode of the
// trace's program (nil, or one built for a different program or issue width,
// flattens fresh — results are identical either way).
func SweepPredecoded(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	norm := normalizeSweepConfigs(cfgs)
	if err := sweepCheck(norm); err != nil {
		return nil, err
	}
	base := norm[0]
	prog := t.Program()
	tabs := tablesFor(prog, norm, pre)

	// Predictor classes: one Bank lane (and one pollution stream) per
	// distinct Predictor config, in first-appearance order, from the family
	// the backend's policy selects (as New does). Perfect prediction and a
	// backend without a predictor collapse to a single implicit class with no
	// mispredicts, however the grid varies the predictor tables.
	family := backend.PolicyFor(prog.Kind).Predictor
	classOf := make([]int, len(norm))
	var classCfgs []bpred.Config
	if !base.PerfectBP && family != backend.PredNone {
		idx := make(map[bpred.Config]int)
		for i, cfg := range norm {
			c, ok := idx[cfg.Predictor]
			if !ok {
				c = len(classCfgs)
				idx[cfg.Predictor] = c
				classCfgs = append(classCfgs, cfg.Predictor)
			}
			classOf[i] = c
		}
	}
	nClasses := len(classCfgs)
	if nClasses == 0 {
		nClasses = 1
	}
	classes := make([]*sweepClass, nClasses)
	for c := range classes {
		classes[c] = &sweepClass{}
	}

	en, err := enrichSweepA(ctx, t, base, tabs[0].lp, family, classCfgs, classes)
	if err != nil {
		return nil, err
	}
	sh := en.sh

	// Profile each class that has at least one real-icache lane. All
	// profilers share one level range (the grid's min/max swept sizes), so
	// every lane's size maps to the same level index.
	minSize, maxSize := 0, 0
	for _, cfg := range norm {
		if sz := cfg.ICache.SizeBytes; sz != 0 {
			if minSize == 0 || sz < minSize {
				minSize = sz
			}
			maxSize = max(maxSize, sz)
		}
	}
	levelOf := make(map[int]int)
	if maxSize > 0 {
		profiled := make([]bool, nClasses)
		for i, cfg := range norm {
			if cfg.ICache.SizeBytes != 0 {
				profiled[classOf[i]] = true
			}
		}
		profs := make([]*cache.StackDist, nClasses)
		var profClasses []int
		levels := 0
		for c := range classes {
			if !profiled[c] {
				continue
			}
			prof, err := cache.NewStackDist(base.ICache, minSize, maxSize)
			if err != nil {
				return nil, fmt.Errorf("uarch: sweep: %w", err)
			}
			profs[c] = prof
			levels = prof.Levels()
			profClasses = append(profClasses, c)
		}
		for sz, lvl := minSize, 0; lvl < levels; sz, lvl = sz*2, lvl+1 {
			levelOf[sz] = lvl
		}
		// Classes profile independently (each walk folds in its own
		// pollution stream), so they fan out across workers.
		wB := workers
		if wB <= 0 {
			wB = runtime.GOMAXPROCS(0)
		}
		if wB > len(profClasses) {
			wB = len(profClasses)
		}
		err = fanOut(ctx, len(profClasses), wB, func(j int) error {
			c := profClasses[j]
			return enrichSweepB(ctx, t, profs[c], classes[c], en.poll[c])
		})
		if err != nil {
			return nil, err
		}
	}
	en.poll = nil // pass B consumed the pollution streams

	ids := t.BlockIDs()
	ne := len(ids)

	sims := make([]*Sim, len(norm))
	for i, cfg := range norm {
		cls := classes[classOf[i]]
		lane := &sweepLane{
			sh:     sh,
			cls:    cls,
			lp:     tabs[i].lp,
			level:  -1,
			nextMp: sweepNoMp,
		}
		if len(cls.mpEv) > 0 {
			lane.nextMp = cls.mpEv[0]
		}
		if cfg.ICache.SizeBytes != 0 {
			lvl, ok := levelOf[cfg.ICache.SizeBytes]
			if !ok {
				return nil, fmt.Errorf("uarch: sweep: config %d: size %dB is not a profiled level", i, cfg.ICache.SizeBytes)
			}
			lane.level = lvl
			lane.fm = cls.fetchMiss[lvl*ne : (lvl+1)*ne]
			lane.wm = cls.wrongMiss[lvl]
		}
		scr := getLaneScratch(cfg.WindowBlocks)
		sims[i] = &Sim{
			cfg:    cfg,
			lp:     tabs[i].lp,
			noMiss: tabs[i].noMiss,
			scr:    scr,
			win:    scr.win,
			ldMiss: sh.ldMiss,
			sw:     lane,
		}
	}

	// Lanes advance through the trace in lockstep, grouped by worker: every
	// lane in a group consumes each predecoded block back to back while it is
	// hot in cache, instead of streaming the whole trace once per lane. Group
	// g holds lanes g, g+w, g+2w, …: neighbouring configurations of a grid
	// cost alike, so dealing lanes round robin spreads its cheap and dear
	// corners over every worker. Lanes never interact, so the grouping (and
	// group count) cannot change results.
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(sims) {
		w = len(sims)
	}
	results := make([]*Result, len(norm))
	err = fanOut(ctx, w, w, func(g int) error {
		for ei, id := range ids {
			// The same chunked check as Trace.ReplayContext, so a canceled
			// sweep stops mid-lane rather than after the full event stream.
			if ei&(sweepCancelChunk-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Lanes are fused in pairs so each block's scheduling loop carries
			// two independent dependency chains (see laneSchedule2); an odd
			// trailing lane steps alone.
			last := ei == len(ids)-1
			i := g
			for ; i+w < len(sims); i += 2 * w {
				a, b := sims[i], sims[i+w]
				lbA, lbB := &a.lp[id], &b.lp[id]
				issueA := a.issueAt(a.drain(len(lbA.ops)) + a.icacheStall(a.sw.fetchMiss(ei)))
				issueB := b.issueAt(b.drain(len(lbB.ops)) + b.icacheStall(b.sw.fetchMiss(ei)))
				stA, stB := laneSchedule2(a, b, lbA, issueA, issueB)
				a.post(lbA, issueA, stA, int64(lbA.fetchCycles), a.sw.mispredictAt(ei), last)
				b.post(lbB, issueB, stB, int64(lbB.fetchCycles), b.sw.mispredictAt(ei), last)
			}
			if i < len(sims) {
				s := sims[i]
				lb := &s.lp[id]
				issue := s.issueAt(s.drain(len(lb.ops)) + s.icacheStall(s.sw.fetchMiss(ei)))
				st := s.laneSchedule(lb, issue, &s.scr.regs, true)
				s.post(lb, issue, st, int64(lb.fetchCycles), s.sw.mispredictAt(ei), last)
			}
		}
		for i := g; i < len(sims); i += w {
			results[i] = sims[i].sweepFinish()
			sims[i].release()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
