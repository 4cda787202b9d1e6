package uarch

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

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
//     kernel. Lanes that differ only in icache size fold: while their timing
//     states coincide up to a cycle shift, one follows another and does no
//     kernel work (see foldWorker).
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

	idx   int // the lane's configuration index
	group int // the lane's fold group (see foldGroups)
	pos   int // the lane's slot in its worker's lanes (see foldWorker)

	// Folding (see foldWorker). A lane with a nil leader is live and steps
	// the kernel. A follower does no kernel work: its timing state is its
	// leader's shifted by shift, and its counters are own plus whatever the
	// leader accumulated since led. Its own stream cursors are stale.
	leader    *Sim
	shift     int64
	own, led  Result
	followers int // lanes following this one
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

// missAt reads entry i of a per-level miss table; a perfect icache has no
// table and never misses.
func missAt(m []uint8, i int) int {
	if m == nil {
		return 0
	}
	return int(m[i])
}

// fetchMiss is the lane's outcome for event ei's fetch probe.
func (sw *sweepLane) fetchMiss(ei int) int { return missAt(sw.fm, ei) }

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
		sw.mp.wrongMiss = missAt(sw.wm, sw.faultOff)
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
	return SweepPredecoded(context.Background(), t, cfgs, workers, nil)
}

// SweepPredecoded is Sweep with cooperative cancellation, reusing a prebuilt
// Predecode of the trace's program (nil, or one built for a different
// program or issue width, flattens fresh — results are identical either
// way). The shared enrichment replay and every lockstep timing lane check
// ctx between trace chunks, and the call returns an error satisfying
// errors.Is(err, ctx.Err()) with all lane workers drained once the context
// is done.
func SweepPredecoded(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded) ([]*Result, error) {
	return sweep(ctx, t, cfgs, workers, pre, nil)
}

// sweep is SweepPredecoded, also counting its folding into st when st is
// non-nil.
func sweep(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded, st *foldStats) ([]*Result, error) {
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

	lanes := make([]laneSim, len(norm))
	for i, cfg := range norm {
		cls := classes[classOf[i]]
		ls := &lanes[i]
		ls.sw = sweepLane{
			sh:     sh,
			cls:    cls,
			lp:     tabs[i].lp,
			level:  -1,
			nextMp: sweepNoMp,
			idx:    i,
		}
		if len(cls.mpEv) > 0 {
			ls.sw.nextMp = cls.mpEv[0]
		}
		if cfg.ICache.SizeBytes != 0 {
			lvl, ok := levelOf[cfg.ICache.SizeBytes]
			if !ok {
				return nil, fmt.Errorf("uarch: sweep: config %d: size %dB is not a profiled level", i, cfg.ICache.SizeBytes)
			}
			ls.sw.level = lvl
			ls.sw.fm = cls.fetchMiss[lvl*ne : (lvl+1)*ne]
			ls.sw.wm = cls.wrongMiss[lvl]
		}
		scr := getLaneScratch(cfg.WindowBlocks)
		ls.sim = Sim{
			cfg:    cfg,
			lp:     tabs[i].lp,
			noMiss: tabs[i].noMiss,
			scr:    scr,
			win:    scr.win,
			ldMiss: sh.ldMiss,
			sw:     &ls.sw,
		}
	}

	// Lanes advance through the trace in lockstep, grouped by worker: every
	// lane of a worker consumes each predecoded block back to back while it
	// is hot in cache, instead of streaming the whole trace once per lane.
	// Workers are dealt whole fold groups round robin — worker g takes
	// groups g, g+w, g+2w, … — since a group's lanes fold onto each other.
	// Lanes never interact except through folding, which is exact, so the
	// dealing (and worker count) cannot change results.
	groups := foldGroups(norm, lanes)
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, len(groups))
	results := make([]*Result, len(norm))
	var stats []foldStats
	if st != nil {
		stats = make([]foldStats, w)
	}
	err = fanOut(ctx, w, w, func(g int) error {
		fw := newFoldWorker(groups, g, w, st != nil)
		err := fw.walk(ctx, ids)
		if stats != nil {
			stats[g] = fw.stats
		}
		if err != nil {
			return err
		}
		fw.finish(results)
		return nil
	})
	for i := range stats {
		st.add(&stats[i])
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// foldCadence is how many events pass between fold attempts. Attempting on
// every event folds the most lane-events, but its frontier comparisons cost
// more than the extra folds save; at 16 a lane that could fold runs live for
// at most 15 events too many. DESIGN.md §12 records the measurement behind
// the value.
const foldCadence = 16

// laneSim is a sweep lane: a Sim and its outcome source, allocated
// together.
type laneSim struct {
	sim Sim
	sw  sweepLane
}

// foldGroups partitions the lanes into fold groups: lanes whose normalized
// configurations agree apart from the icache size. Such lanes share a
// predictor class (one class per distinct predictor configuration), the
// predecoded table, the load-outcome stream and every kernel knob, so they
// differ only in icache outcomes. Groups are numbered in order of first
// appearance. Within a group lanes run larger icache first, a perfect one
// largest of all: the order in which they are preferred as leaders, since a
// larger icache misses less and so splits its followers off less often.
func foldGroups(norm []Config, lanes []laneSim) [][]*Sim {
	n := 0
	for i := range lanes {
		g := n
		for j := 0; j < i; j++ {
			a, b := norm[i], norm[j]
			a.ICache.SizeBytes, b.ICache.SizeBytes = 0, 0
			if a == b {
				g = lanes[j].sw.group
				break
			}
		}
		if g == n {
			n++
		}
		lanes[i].sw.group = g
	}
	capacity := func(s *Sim) int {
		if sz := s.cfg.ICache.SizeBytes; sz != 0 {
			return sz
		}
		return math.MaxInt
	}
	grouped := make([]*Sim, 0, len(lanes))
	groups := make([][]*Sim, n)
	for g := range groups {
		start := len(grouped)
		for i := range lanes {
			if lanes[i].sw.group == g {
				grouped = append(grouped, &lanes[i].sim)
			}
		}
		groups[g] = grouped[start:len(grouped):len(grouped)]
		slices.SortStableFunc(groups[g], func(a, b *Sim) int { return cmp.Compare(capacity(b), capacity(a)) })
	}
	return groups
}

// foldWorker walks one worker's fold groups through the trace in lockstep,
// folding lanes onto siblings whose timing frontier they match.
//
// A group's lanes see identical mispredict and load-outcome streams and run
// identical kernels, so they differ only in icache outcomes. When a live
// lane's frontier converges with a live sibling's (frontiersConverge: equal
// up to the cycle shift d between their next fetch cycles), the lane's
// future is the sibling's shifted by d for as long as their icache outcomes
// agree: the kernel is shift-covariant (kernel.go). The lane then follows
// the sibling — it stores d and the two Results, and does no kernel work —
// until split finds an event whose icache outcome differs, where it is
// materialized from its leader's frontier and steps live again. Only a
// live lane without followers folds, so a leader is never itself a
// follower.
type foldWorker struct {
	groups [][]*Sim
	first  int // this worker's groups are first, first+stride, …
	stride int
	// lanes holds the worker's lanes: the live ones in [0, nLive), the
	// followers after them. A lane's sweepLane.pos is its slot.
	lanes  []*Sim
	nLive  int
	fr     *frontier // split scratch, borrowed from the first lane's pooled scratch
	record bool      // record fold edges in stats
	stats  foldStats
}

func newFoldWorker(groups [][]*Sim, first, stride int, record bool) foldWorker {
	fw := foldWorker{groups: groups, first: first, stride: stride, record: record}
	for k := first; k < len(groups); k += stride {
		fw.lanes = append(fw.lanes, groups[k]...)
	}
	for p, s := range fw.lanes {
		s.sw.pos = p
	}
	fw.nLive = len(fw.lanes)
	fw.fr = &fw.lanes[0].scr.fr
	return fw
}

// walk steps the worker's lanes through every event: followers split off
// before an event, live lanes step it, and lanes fold after it at the
// cadence.
func (fw *foldWorker) walk(ctx context.Context, ids []isa.BlockID) error {
	for ei, id := range ids {
		// The same chunked check as Trace.ReplayContext, so a canceled
		// sweep stops mid-lane rather than after the full event stream.
		if ei&(sweepCancelChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		fw.split(ei)
		last := ei == len(ids)-1
		fw.step(ei, id, last)
		if ei%foldCadence == foldCadence-1 && !last {
			fw.fold()
		}
	}
	return nil
}

// swap exchanges the lanes in slots p and q.
func (fw *foldWorker) swap(p, q int) {
	fw.lanes[p], fw.lanes[q] = fw.lanes[q], fw.lanes[p]
	fw.lanes[p].sw.pos, fw.lanes[q].sw.pos = p, q
}

// diverges reports whether a follower's outcome at event ei differs from
// its leader's: the fetch probe's misses, or at a fault misprediction the
// wrongly fetched variant's. The leader's cursors stand for both lanes.
func (sw *sweepLane) diverges(ld *sweepLane, ei int) bool {
	if sw.fetchMiss(ei) != ld.fetchMiss(ei) {
		return true
	}
	return uint32(ei) == ld.nextMp && ld.cls.mpKind[ld.mpOff] == mpFault &&
		missAt(sw.wm, ld.faultOff) != missAt(ld.wm, ld.faultOff)
}

// split materializes, before event ei steps, every follower whose outcome
// at ei differs from its leader's.
func (fw *foldWorker) split(ei int) {
	for p := fw.nLive; p < len(fw.lanes); p++ {
		s := fw.lanes[p]
		if s.sw.diverges(s.sw.leader.sw, ei) {
			fw.unfold(s)
			fw.swap(p, fw.nLive)
			fw.nLive++
			fw.stats.splits++
		}
	}
	fw.stats.followed += int64(len(fw.lanes) - fw.nLive)
}

// unfold materializes follower s: its leader's frontier shifted by d into
// s's own scratch, the leader's stream cursors, and s's counters as its
// snapshot plus the leader's delta since the fold.
func (fw *foldWorker) unfold(s *Sim) {
	sw := s.sw
	ld := sw.leader
	captureFrontier(fw.fr, ld)
	fw.fr.shift(sw.shift)
	restoreFrontier(s, fw.fr)
	s.ldOff = ld.ldOff
	sw.mpOff, sw.faultOff, sw.nextMp = ld.sw.mpOff, ld.sw.faultOff, ld.sw.nextMp
	s.res = sw.own
	s.res.addCounters(&ld.res, &sw.led)
	ld.sw.followers--
	sw.leader = nil
}

// step runs event ei through the kernel on every live lane. Lanes are fused
// in pairs so each block's scheduling loop carries two independent
// dependency chains (see laneSchedule2); an odd trailing lane steps alone.
func (fw *foldWorker) step(ei int, id isa.BlockID, last bool) {
	live := fw.lanes[:fw.nLive]
	p := 0
	for ; p+1 < len(live); p += 2 {
		a, b := live[p], live[p+1]
		lbA, lbB := &a.lp[id], &b.lp[id]
		issueA := a.issueAt(a.drain(len(lbA.ops)) + a.icacheStall(a.sw.fetchMiss(ei)))
		issueB := b.issueAt(b.drain(len(lbB.ops)) + b.icacheStall(b.sw.fetchMiss(ei)))
		stA, stB := laneSchedule2(a, b, lbA, issueA, issueB)
		a.post(lbA, issueA, stA, int64(lbA.fetchCycles), a.sw.mispredictAt(ei), last)
		b.post(lbB, issueB, stB, int64(lbB.fetchCycles), b.sw.mispredictAt(ei), last)
	}
	if p < len(live) {
		s := live[p]
		lb := &s.lp[id]
		issue := s.issueAt(s.drain(len(lb.ops)) + s.icacheStall(s.sw.fetchMiss(ei)))
		st := s.laneSchedule(lb, issue, &s.scr.regs, true)
		s.post(lb, issue, st, int64(lb.fetchCycles), s.sw.mispredictAt(ei), last)
	}
}

// fold lets every live lane without followers follow the first live
// sibling whose frontier it matches, trying the group's lanes as followers
// in reverse preference order and as leaders in preference order. A pair of
// lanes that were both candidates is compared once: convergence is
// symmetric. It must not run after the trace's final event: a fold only
// pins down the state that future events read, and Cycles reads lastRetire
// directly.
func (fw *foldWorker) fold() {
	for k := fw.first; k < len(fw.groups); k += fw.stride {
		grp := fw.groups[k]
		for j := len(grp) - 1; j >= 0; j-- {
			s := grp[j]
			if s.sw.leader != nil || s.sw.followers > 0 {
				continue
			}
			for i, ld := range grp {
				if i == j || ld.sw.leader != nil || i > j && ld.sw.followers == 0 ||
					!frontiersConverge(s, ld) {
					continue
				}
				sw := s.sw
				sw.leader, sw.shift = ld, s.nextFetch-ld.nextFetch
				sw.own, sw.led = s.res, ld.res
				ld.sw.followers++
				fw.nLive--
				fw.swap(sw.pos, fw.nLive)
				fw.stats.folds++
				if fw.record {
					fw.stats.edges = append(fw.stats.edges, [2]int{sw.idx, ld.sw.idx})
				}
				break
			}
		}
	}
}

// finish materializes every remaining follower, then finishes every lane
// into results and returns its scratch to the pool.
func (fw *foldWorker) finish(results []*Result) {
	for _, s := range fw.lanes[fw.nLive:] {
		fw.unfold(s)
	}
	for _, s := range fw.lanes {
		results[s.sw.idx] = s.sweepFinish()
		s.release()
	}
}

// foldStats counts a sweep's folding, for tests.
type foldStats struct {
	folds, splits int
	followed      int64    // lane-events spent following
	edges         [][2]int // (follower, leader) configuration indices, one per fold
}

func (st *foldStats) add(o *foldStats) {
	st.folds += o.folds
	st.splits += o.splits
	st.followed += o.followed
	st.edges = append(st.edges, o.edges...)
}
