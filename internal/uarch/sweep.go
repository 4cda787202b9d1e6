package uarch

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

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
// cheap per-config timing lanes, run a chunk of sweepChunk events at a time
// inside that one replay:
//
//   - Pass A drives the real dcache (shared: load outcomes are
//     config-independent) and a bpred.Bank holding one lane per *distinct*
//     predictor config — the grid's predictor classes (one class with no
//     mispredictions under perfect prediction or a backend without a
//     predictor). It fills the chunk's load-outcome stream and, per class,
//     each event's misprediction kind and wrong-path block, and accumulates
//     the committed and wrong-path line counts for perfect-icache
//     accounting.
//   - Pass B advances each class's cache.StackDist profiler over the same
//     chunk, fed with that class's pollution, yielding exact per-event fetch
//     miss counts for every swept icache size simultaneously. Classes
//     profile independently (pollution alters LRU state), but every class
//     shares pass A and the block tables.
//   - Each lane then runs only the timing kernel — window, FU scoreboard,
//     rename ready times, retire, recovery, serialization — against the
//     chunk's outcomes for its (class, icache level) pair. Core-geometry
//     axes need no shared state at all: they are plain per-lane knobs of the
//     kernel. Lanes of one predictor class that differ only in icache size
//     fold: while their timing states coincide up to a cycle shift, one
//     follows another and does no kernel work (see foldWorker).
//
// The chunk tables are then reused; the dcache, Bank, profilers, lane timing
// state and fold groups carry across chunk boundaries, so a sweep's outcome
// memory is bounded by the chunk, the levels and the classes, not by the
// trace.
//
// A lane runs the same kernel as a live Sim, so lane results are identical,
// field for field, to ReplayTrace under the same configuration; sweep_test.go
// checks the two outcome sources against each other over every backend,
// including cross-axis grids and per-axis marginals.

// sweepChunk is the sweep's unit of work: the enrichment fills its outcome
// tables for this many events, the profilers and lanes consume them, and the
// tables are reused for the next chunk, so a sweep's outcome memory does not
// grow with the trace. A power of two and a multiple of foldCadence.
const sweepChunk = 4096

// sweepClass holds one predictor class's outcomes for the current chunk —
// one distinct Predictor config in the grid (or the single implicit class
// when nothing predicts) — and the state that carries across chunks. Lanes
// read it and never write it. Every table is indexed by the event's offset
// in the chunk.
type sweepClass struct {
	// mpAt holds, per event, 1 + the index in mps of the class's
	// misprediction there, or 0 where it predicted right. Mispredictions
	// are a few percent of events, so mps stays short.
	mpAt []int32
	mps  []sweepMp

	// Icache outcomes at every profiled level. fetchMiss is the fetch
	// probe's missing lines, transposed — [level*len(mpAt) + event] — so
	// each lane walks one contiguous per-level run; wrongMiss is those of a
	// fault misprediction's wrongly fetched variant, [mp*levels + level]
	// (entries of other kinds are unused). Both are nil, with prof, when no
	// lane of this class has a real icache.
	fetchMiss []int32
	wrongMiss []int32
	prof      *cache.StackDist

	// accesses is the class's total icache line traffic (committed fetches
	// plus this class's wrong-path pollution): what a perfect icache
	// reports, since it counts accesses but never misses. Pass A counts
	// the pollution as it goes and adds the fetches at the end.
	accesses int64

	bp bpred.Stats
}

// sweepMp is one misprediction of a class: its kind and the wrong-path
// block the class fetches (NoBlock when nothing is fetched: misfetches,
// nonexistent targets).
type sweepMp struct {
	kind  uint8
	block isa.BlockID
}

// profile walks one chunk of the committed block stream through the class's
// stack-distance profiler, interleaving the class's wrong-path fetches at
// its mispredictions, and fills the chunk's fetch and wrong-path miss
// tables. scratch has one slot per level.
func (cls *sweepClass) profile(prog *isa.Program, ids []isa.BlockID, scratch []int) {
	prof, levels, stride := cls.prof, len(scratch), len(cls.mpAt)
	cls.wrongMiss = slices.Grow(cls.wrongMiss[:0], len(cls.mps)*levels)[:len(cls.mps)*levels]
	for i, id := range ids {
		b := prog.Blocks[id]
		clear(scratch)
		prof.AccessRange(b.Addr, b.Size, scratch)
		for l, m := range scratch {
			cls.fetchMiss[l*stride+i] = int32(m)
		}
		k := cls.mpAt[i] - 1
		if k < 0 {
			continue
		}
		switch mp := cls.mps[k]; mp.kind {
		case mpTrap:
			if mp.block != isa.NoBlock {
				pb := prog.Blocks[mp.block]
				prof.AccessRange(pb.Addr, pb.Size, nil)
			}
		case mpFault:
			pb := prog.Blocks[mp.block]
			clear(scratch)
			prof.AccessRange(pb.Addr, pb.Size, scratch)
			for l, m := range scratch {
				cls.wrongMiss[int(k)*levels+l] = int32(m)
			}
		}
	}
}

// sweepEnrich is the shared enrichment replay's state, carried across
// chunks: the dcache (load outcomes are config-independent), the Bank
// holding one lane per predictor class (nil when nothing predicts), and the
// line traffic behind perfect-icache accounting. It drives the dcache and
// classifies mispredictions exactly as a live Sim's resolve does.
type sweepEnrich struct {
	prog    *isa.Program
	lp      []laneBlock // the program's table, for its memory flags
	dc      *cache.Cache
	bank    *bpred.Bank
	preds   []isa.BlockID // Bank.Step's per-class predictions
	classes []*sweepClass

	// lineCnt is each block's line count at the shared icache line size;
	// it mirrors Cache.AccessRange (a zero-size block still touches its
	// first line).
	lineCnt     []int64
	commitLines int64

	// ldMiss is the chunk's committed-load outcome stream, shared by every
	// lane: 1 per load that misses the dcache, 0 on a hit.
	ldMiss []uint8
}

// newSweepEnrich sets up the enrichment for the grid's predictor classes
// (nil classCfgs when nothing predicts) from the family the backend selects.
func newSweepEnrich(prog *isa.Program, base Config, lp []laneBlock, family backend.PredictorSel, classCfgs []bpred.Config, classes []*sweepClass) (*sweepEnrich, error) {
	dc, err := cache.New(base.DCache)
	if err != nil {
		return nil, fmt.Errorf("uarch: sweep: dcache: %w", err)
	}
	en := &sweepEnrich{
		prog:    prog,
		lp:      lp,
		dc:      dc,
		classes: classes,
		lineCnt: make([]int64, len(prog.Blocks)),
	}
	if len(classCfgs) > 0 {
		en.bank = bpred.NewBank(family == backend.PredBSA, classCfgs)
		en.preds = make([]isa.BlockID, en.bank.Len())
	}
	shift := uint32(bits.TrailingZeros32(uint32(base.ICache.LineBytes)))
	for id, b := range prog.Blocks {
		if b == nil {
			continue
		}
		sz := max(b.Size, 1)
		en.lineCnt[id] = int64((b.Addr+sz-1)>>shift - b.Addr>>shift + 1)
	}
	return en, nil
}

// step enriches committed event ev, the chunk's i-th: its load outcomes, and
// every class's misprediction of it.
func (en *sweepEnrich) step(ev *emu.BlockEvent, i int) {
	b := ev.Block
	en.commitLines += en.lineCnt[b.ID]
	if en.lp[b.ID].mem {
		en.ldMiss = loadOutcomes(en.ldMiss, en.dc, b, ev.MemAddrs)
	}
	if ev.Next == isa.NoBlock || en.bank == nil {
		return
	}
	en.bank.Step(b, ev.Next, ev.Taken, ev.SuccIdx, en.preds)
	for c, predicted := range en.preds {
		if predicted == ev.Next {
			continue
		}
		cls := en.classes[c]
		kind, wb := classify(en.prog, b, predicted, ev.Next)
		if wb != isa.NoBlock {
			cls.accesses += en.lineCnt[wb]
		}
		cls.mps = append(cls.mps, sweepMp{kind: kind, block: wb})
		cls.mpAt[i] = int32(len(cls.mps))
	}
}

// reset readies the chunk tables for the next chunk of n events.
func (en *sweepEnrich) reset(n int) {
	en.ldMiss = en.ldMiss[:0]
	for _, cls := range en.classes {
		clear(cls.mpAt[:n])
		cls.mps = cls.mps[:0]
	}
}

// sweepLane is one configuration's view of its class's chunk tables: the
// outcome source of a Sim that runs as a sweep lane. mpAt is the class's,
// and fm this lane's level run of the class's fetchMiss (nil for a perfect
// icache); stepping the chunk's event i reads entry i of each.
type sweepLane struct {
	cls   *sweepClass
	lp    []laneBlock // the lane's table, for wrongly fetched variants
	mpAt  []int32
	fm    []int32
	level int // profiler level of this config's icache size; -1 = perfect
	mp    mispredict

	idx   int // the lane's configuration index
	group int // the lane's fold group (see foldGroups)
	pos   int // the lane's slot in foldWorker.lanes

	// Folding (see foldWorker). A lane with a nil leader is live and steps
	// the kernel. A follower does no kernel work: its timing state is its
	// leader's shifted by shift, and its counters are own plus whatever the
	// leader accumulated since led. Its load-outcome cursor is stale.
	leader    *Sim
	shift     int64
	own, led  Result
	followers int // lanes following this one
}

// fetchMiss is the lane's outcome for the fetch probe of the chunk's event
// i; a perfect icache has no run and never misses.
func (sw *sweepLane) fetchMiss(i int) int {
	if sw.fm == nil {
		return 0
	}
	return int(sw.fm[i])
}

// wrongMiss is the lane's outcome for the wrong-path fetch of its class's
// k-th misprediction in the chunk, a fault.
func (sw *sweepLane) wrongMiss(k int32) int {
	if sw.level < 0 {
		return 0
	}
	return int(sw.cls.wrongMiss[int(k)*sw.cls.prof.Levels()+sw.level])
}

// mispredictAt is the lane's misprediction outcome for the chunk's event i,
// nil when its class predicted right. The check inlines into the lockstep
// loop and leaves the rare mispredicting event to take.
func (sw *sweepLane) mispredictAt(i int) *mispredict {
	k := sw.mpAt[i] - 1
	if k < 0 {
		return nil
	}
	return sw.take(k)
}

// take builds the lane's copy of its class's k-th misprediction in the
// chunk. Kept out of line so that mispredictAt inlines.
//
//go:noinline
func (sw *sweepLane) take(k int32) *mispredict {
	mp := sw.cls.mps[k]
	sw.mp = mispredict{kind: mp.kind}
	if mp.kind == mpFault {
		sw.mp.wrong = &sw.lp[mp.block]
		sw.mp.wrongMiss = sw.wrongMiss(k)
	}
	return &sw.mp
}

// sweepFinish is Finish for a lane: shared statistics are copied into the
// per-config result. A perfect icache reports the class's line accesses
// (committed fetches plus that class's pollution) with zero misses, exactly
// like a live perfect cache.
func (s *Sim) sweepFinish(dc cache.Stats) *Result {
	s.res.Cycles = s.lastRetire
	sw := s.sw
	if sw.level >= 0 {
		s.res.ICache = sw.cls.prof.StatsAt(sw.level)
	} else {
		s.res.ICache = cache.Stats{Accesses: sw.cls.accesses}
	}
	s.res.DCache = dc
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
// on the same inputs. The sweep runs on the calling goroutine.
func Sweep(t *emu.Trace, cfgs []Config) ([]*Result, error) {
	return sweep(context.Background(), t, cfgs, nil, nil)
}

// SweepPredecoded is Sweep with cooperative cancellation, reusing a prebuilt
// Predecode of the trace's program (nil, or one built for a different
// program or issue width, flattens fresh — results are identical either
// way). The sweep's replay checks ctx every 4096 events, and the call
// returns an error satisfying errors.Is(err, ctx.Err()) once the context is
// done. workers is ignored.
func SweepPredecoded(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded) ([]*Result, error) {
	return sweep(ctx, t, cfgs, pre, nil)
}

// sweep is SweepPredecoded, also counting its folding into st when st is
// non-nil.
func sweep(ctx context.Context, t *emu.Trace, cfgs []Config, pre *Predecoded, st *foldStats) ([]*Result, error) {
	norm := normalizeSweepConfigs(cfgs)
	if err := sweepCheck(norm); err != nil {
		return nil, err
	}
	base := norm[0]
	prog := t.Program()
	tabs := tablesFor(prog, norm, pre)

	family := backend.PolicyFor(prog.Kind).Predictor
	classOf, classCfgs := predictorClasses(norm, family)
	// The chunk tables span a whole chunk, or the whole trace when it is
	// shorter.
	ids := t.BlockIDs()
	chunkLen := min(sweepChunk, len(ids))
	classes := make([]*sweepClass, max(len(classCfgs), 1))
	for c := range classes {
		classes[c] = &sweepClass{mpAt: make([]int32, chunkLen)}
	}

	// Profile each class that has at least one real-icache lane. All
	// profilers share one level range (the grid's min/max swept sizes), so
	// every lane's size maps to the same level index.
	minSize, maxSize := icacheRange(norm)
	levels := 0
	for i, cfg := range norm {
		cls := classes[classOf[i]]
		if cfg.ICache.SizeBytes == 0 || cls.prof != nil {
			continue
		}
		prof, err := cache.NewStackDist(base.ICache, minSize, maxSize)
		if err != nil {
			return nil, fmt.Errorf("uarch: sweep: %w", err)
		}
		levels = prof.Levels()
		cls.prof = prof
		cls.fetchMiss = make([]int32, levels*chunkLen)
	}

	en, err := newSweepEnrich(prog, base, tabs[0].lp, family, classCfgs, classes)
	if err != nil {
		return nil, err
	}

	lanes := make([]laneSim, len(norm))
	for i, cfg := range norm {
		cls := classes[classOf[i]]
		ls := &lanes[i]
		ls.sw = sweepLane{cls: cls, lp: tabs[i].lp, mpAt: cls.mpAt, level: -1, idx: i}
		if cfg.ICache.SizeBytes != 0 {
			lvl, err := cls.prof.LevelOf(cfg.ICache.SizeBytes)
			if err != nil {
				return nil, fmt.Errorf("uarch: sweep: config %d: %w", i, err)
			}
			ls.sw.level = lvl
			ls.sw.fm = cls.fetchMiss[lvl*chunkLen : (lvl+1)*chunkLen]
		}
		scr := getLaneScratch(cfg.WindowBlocks)
		ls.sim = Sim{
			cfg:    cfg,
			lp:     tabs[i].lp,
			noMiss: tabs[i].noMiss,
			scr:    scr,
			win:    scr.win,
			sw:     &ls.sw,
		}
	}

	// One replay drives all three phases, a chunk at a time: the shared
	// enrichment fills the chunk's load outcomes and mispredictions, each
	// profiled class walks its profiler over the chunk, then the lanes step
	// through it in lockstep — every lane consumes each predecoded block
	// back to back while it is hot in cache. Each phase stays a tight loop
	// over the whole chunk: fusing the three per event ran icache sweeps
	// about 10% slower. Lanes never interact except through folding, which
	// is exact.
	fw := newFoldWorker(foldGroups(norm, lanes), st != nil)
	scratch := make([]int, levels)
	done, n := 0, 0
	err = t.ReplayContext(ctx, func(ev *emu.BlockEvent) error {
		en.step(ev, n)
		if n++; n < chunkLen && done+n < len(ids) {
			return nil
		}
		chunk := ids[done : done+n]
		for _, cls := range classes {
			if cls.prof != nil {
				cls.profile(prog, chunk, scratch)
			}
		}
		fw.walk(done, chunk, en.ldMiss, len(ids))
		en.reset(n)
		done, n = done+n, 0
		return nil
	})
	if st != nil {
		*st = fw.stats
	}
	if err != nil {
		return nil, err
	}
	for c, cls := range classes {
		cls.accesses += en.commitLines
		if en.bank != nil {
			cls.bp = en.bank.LaneStats(c)
		}
	}
	results := make([]*Result, len(norm))
	fw.finish(results, en.dc.Stats())
	return results, nil
}

// predictorClasses assigns each normalized configuration its predictor
// class: one Bank lane (and one pollution stream) per distinct Predictor
// config, in first-appearance order, for the family the backend's policy
// selects (as New does). Perfect prediction and a backend without a
// predictor collapse to a single implicit class with no mispredictions,
// however the grid varies the predictor tables; classCfgs is then nil.
func predictorClasses(norm []Config, family backend.PredictorSel) (classOf []int, classCfgs []bpred.Config) {
	classOf = make([]int, len(norm))
	if norm[0].PerfectBP || family == backend.PredNone {
		return classOf, nil
	}
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
	return classOf, classCfgs
}

// icacheRange returns the smallest and largest real icache sizes of the
// normalized configurations: the range every class's profiler covers (0, 0
// when every icache is perfect).
func icacheRange(norm []Config) (minSize, maxSize int) {
	for _, cfg := range norm {
		if sz := cfg.ICache.SizeBytes; sz != 0 {
			if minSize == 0 || sz < minSize {
				minSize = sz
			}
			maxSize = max(maxSize, sz)
		}
	}
	return minSize, maxSize
}

// SweepTableBytes bounds the bytes of the tables a sweep of cfgs over a
// program of kind sizes from the configurations alone: per predictor class
// its predictor (bpred.Config.TableBytes), its icache profiler
// (cache.StackDistBytes) and its chunk tables, and per configuration its
// lane and pooled scratch. It excludes what the program and the trace size:
// the block tables, the chunk's load outcomes, and the span of each lane's
// FU ring, which follows the latencies in flight. cfgs must pass CanSweep.
func SweepTableBytes(kind isa.Kind, cfgs []Config) int64 {
	norm := normalizeSweepConfigs(cfgs)
	family := backend.PolicyFor(kind).Predictor
	classOf, classCfgs := predictorClasses(norm, family)
	minSize, maxSize := icacheRange(norm)
	profiled := make([]bool, max(len(classCfgs), 1))
	for i, cfg := range norm {
		profiled[classOf[i]] = profiled[classOf[i]] || cfg.ICache.SizeBytes != 0
	}
	levels := 0
	if minSize != 0 {
		levels = bits.Len(uint(maxSize / minSize))
	}
	const i32 = int64(unsafe.Sizeof(int32(0)))
	var total int64
	for c, prof := range profiled {
		// mpAt, and at most one misprediction an event.
		total += sweepChunk * (i32 + int64(unsafe.Sizeof(sweepMp{})))
		if c < len(classCfgs) {
			total += int64(classCfgs[c].TableBytes(family == backend.PredBSA))
		}
		if prof {
			// The profiler, fetchMiss, and wrongMiss at one misprediction
			// an event.
			total += int64(cache.StackDistBytes(norm[0].ICache, minSize, maxSize)) + 2*sweepChunk*int64(levels)*i32
		}
	}
	for _, cfg := range norm {
		total += int64(unsafe.Sizeof(laneSim{}) + unsafe.Sizeof(laneScratch{}))
		total += int64(len(newLaneRing().counts)) + int64(cfg.WindowBlocks+1)*int64(unsafe.Sizeof(windowEntry{}))
	}
	return total
}

// foldCadence is how many events pass between fold attempts. Attempting on
// every event folds the most lane-events, but its frontier comparisons cost
// more than the extra folds save; at 16 a lane that could fold runs live for
// at most 15 events too many. EXPERIMENTS.md's history table records the
// measurement behind the value.
const foldCadence = 16

// laneSim is a sweep lane: a Sim and its outcome source, allocated
// together.
type laneSim struct {
	sim Sim
	sw  sweepLane
}

// foldGroups partitions the lanes into fold groups: lanes of one predictor
// class whose normalized configurations agree apart from the icache size
// and the predictor tables. Such lanes share the mispredict streams, the
// predecoded table, the load-outcome stream and every kernel knob, so they
// differ only in icache outcomes. Where the class stands for one predictor
// configuration, the key is that configuration less the icache size; where
// nothing predicts, every predictor configuration shares the one class, and
// lanes of equal icache size are the same machine, which folds at the first
// attempt and never splits. Groups are numbered in order of first
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
			a.Predictor, b.Predictor = bpred.Config{}, bpred.Config{}
			if lanes[i].sw.cls == lanes[j].sw.cls && a == b {
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

// foldWorker walks every fold group through the trace in lockstep, folding
// lanes onto siblings whose timing frontier they match.
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
	// lanes holds every lane: the live ones in [0, nLive), the followers
	// after them. A lane's sweepLane.pos is its slot.
	lanes  []*Sim
	nLive  int
	fr     *frontier // split scratch, borrowed from the first lane's pooled scratch
	record bool      // record fold edges in stats
	stats  foldStats
}

func newFoldWorker(groups [][]*Sim, record bool) foldWorker {
	fw := foldWorker{groups: groups, record: record}
	for _, grp := range groups {
		fw.lanes = append(fw.lanes, grp...)
	}
	for p, s := range fw.lanes {
		s.sw.pos = p
	}
	fw.nLive = len(fw.lanes)
	fw.fr = &fw.lanes[0].scr.fr
	return fw
}

// walk steps the lanes through one chunk of the ne-event trace, the
// events from base on, whose committed loads have the outcomes ldMiss:
// followers split off before an event, live lanes step it, and lanes fold
// after it at the cadence.
func (fw *foldWorker) walk(base int, ids []isa.BlockID, ldMiss []uint8, ne int) {
	for _, s := range fw.lanes {
		s.ldMiss, s.ldOff = ldMiss, 0
	}
	for i, id := range ids {
		fw.split(i)
		ei := base + i
		last := ei == ne-1
		fw.step(i, id, last)
		if ei%foldCadence == foldCadence-1 && !last {
			fw.fold()
		}
	}
}

// swap exchanges the lanes in slots p and q.
func (fw *foldWorker) swap(p, q int) {
	fw.lanes[p], fw.lanes[q] = fw.lanes[q], fw.lanes[p]
	fw.lanes[p].sw.pos, fw.lanes[q].sw.pos = p, q
}

// diverges reports whether a follower's outcome at the chunk's event i
// differs from its leader's: the fetch probe's misses, or at a fault
// misprediction the wrongly fetched variant's. The two share a class.
func (sw *sweepLane) diverges(ld *sweepLane, i int) bool {
	if sw.fetchMiss(i) != ld.fetchMiss(i) {
		return true
	}
	k := sw.mpAt[i] - 1
	return k >= 0 && sw.cls.mps[k].kind == mpFault && sw.wrongMiss(k) != ld.wrongMiss(k)
}

// split materializes, before the chunk's event i steps, every follower
// whose outcome at i differs from its leader's.
func (fw *foldWorker) split(i int) {
	for p := fw.nLive; p < len(fw.lanes); p++ {
		s := fw.lanes[p]
		if s.sw.diverges(s.sw.leader.sw, i) {
			fw.unfold(s)
			fw.swap(p, fw.nLive)
			fw.nLive++
			fw.stats.splits++
		}
	}
	fw.stats.followed += int64(len(fw.lanes) - fw.nLive)
}

// unfold materializes follower s: its leader's frontier shifted by d into
// s's own scratch, the leader's load-outcome cursor, and s's counters as its
// snapshot plus the leader's delta since the fold.
func (fw *foldWorker) unfold(s *Sim) {
	sw := s.sw
	ld := sw.leader
	captureFrontier(fw.fr, ld)
	fw.fr.shift(sw.shift)
	restoreFrontier(s, fw.fr)
	s.ldOff = ld.ldOff
	s.res = sw.own
	s.res.addCounters(&ld.res, &sw.led)
	ld.sw.followers--
	sw.leader = nil
}

// step runs the chunk's event i, block id, through the kernel on every live
// lane.
func (fw *foldWorker) step(i int, id isa.BlockID, last bool) {
	for _, s := range fw.lanes[:fw.nLive] {
		lb := &s.lp[id]
		issue := s.issueAt(s.drain(len(lb.ops)) + s.icacheStall(s.sw.fetchMiss(i)))
		st := s.laneSchedule(lb, issue, &s.scr.regs, true)
		s.post(lb, issue, st, int64(lb.fetchCycles), s.sw.mispredictAt(i), last)
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
	for _, grp := range fw.groups {
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
// into results, with the shared dcache's statistics dc, and returns its
// scratch to the pool.
func (fw *foldWorker) finish(results []*Result, dc cache.Stats) {
	for _, s := range fw.lanes[fw.nLive:] {
		fw.unfold(s)
	}
	for _, s := range fw.lanes {
		results[s.sw.idx] = s.sweepFinish(dc)
		s.release()
	}
}

// foldStats counts a sweep's folding, for tests.
type foldStats struct {
	folds, splits int
	followed      int64    // lane-events spent following
	edges         [][2]int // (follower, leader) configuration indices, one per fold
}
