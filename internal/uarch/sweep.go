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

// This file implements the sweep engine: the timing kernel's second outcome
// source (kernel.go). A sweep runs the same trace on one machine under N
// configurations that vary only its icache size (the paper's Figures 6/7)
// and its predictor tables (the history-length and predictor-sensitivity
// studies). Under SimulateMany that costs N full replays, but almost all of
// the work those replays do is identical: the committed stream fixes the
// fetch order, so every predictor variant sees the same history (predictor
// tables never observe timing), the dcache sees the same address sequence,
// each config's mispredictions classify the same way given its predictor,
// and the icache address stream — fetches plus wrong-path pollution —
// depends only on which predictor the config uses; only the per-config
// *outcomes* and the stall arithmetic differ.
//
// Sweep therefore splits the grid into one shared enrichment replay and N
// cheap per-config timing lanes, run a chunk of sweepChunk events at a time
// inside that one replay:
//
//   - Pass A drives the real dcache (shared: load outcomes are
//     config-independent) and a bpred.Bank holding one lane per *distinct*
//     predictor config — the grid's predictor classes (one class with no
//     mispredictions under perfect prediction or a backend without a
//     predictor). It appends the chunk's committed-load outcomes to the load
//     bitset, lists each class's mispredictions in the chunk (event, kind,
//     wrong-path block), and accumulates the committed and wrong-path line
//     counts for perfect-icache accounting.
//   - Pass B advances each class's cache.StackDist profiler over the same
//     chunk, fed with that class's pollution, yielding exact per-event fetch
//     miss counts for every swept icache size simultaneously, and writes the
//     class's mispredictions and fetch misses to its outcome streams
//     (memo.go). Classes profile independently (pollution alters LRU
//     state), but every class shares pass A and the block table.
//   - Each lane then runs only the timing kernel — window, FU scoreboard,
//     rename ready times, retire, recovery, serialization — against its
//     class's outcomes at its icache level, which the walk decodes from the
//     class's streams once per event. Every lane runs the one machine on
//     the one predecoded table, so lanes of one predictor class differ only
//     in icache size, and they fold: while their timing states coincide up
//     to a cycle shift, one follows another and does no kernel work (see
//     foldWorker).
//
// A memo-less sweep then cuts the streams and the load bitset, so its
// outcome memory is bounded by the chunk, the levels and the classes, not
// by the trace; the dcache, Bank, profilers, lane timing state and fold
// groups carry across chunk boundaries. A sweep handed the trace's outcome
// memo keeps whole what the memo lacks and publishes it once the sweep
// completes; a sweep whose every class and whose loads the memo records
// runs no replay, dcache, Bank or profiler, and walks the records in place.
// Either way the lanes read one format through the same fold worker.
//
// A lane runs the same kernel as a live Sim, so lane results are identical,
// field for field, to ReplayTrace under the same configuration; sweep_test.go
// checks the two outcome sources against each other over every backend,
// including history × icache grids on several machines and per-axis
// marginals.

// sweepChunk is the sweep's unit of work: the enrichment writes this many
// events' outcomes, the lanes walk them, and a memo-less sweep then cuts
// them, so its outcome memory does not grow with the trace. A power of two
// and a multiple of foldCadence.
const sweepChunk = 4096

// sweepClass is one predictor class — one distinct Predictor config in the
// grid, or the single implicit class when nothing predicts — with its
// outcome streams and the state that carries across chunks. Lanes read it
// and never write it.
type sweepClass struct {
	outcomeStreams

	// pend is pass A's list of the class's mispredictions in the chunk, for
	// pass B. Mispredictions are a few percent of events, so it stays short.
	pend []sweepMp

	// prof is pass B's profiler, nil when the class is not profiled (no
	// lane of it has a real icache) or the memo serves the sweep. keep says
	// the streams are kept whole for the memo instead of cut after each
	// chunk.
	prof *cache.StackDist
	keep bool

	// accesses is the class's total icache line traffic (committed fetches
	// plus this class's wrong-path pollution): what a perfect icache
	// reports, since it counts accesses but never misses. Pass A counts
	// the pollution as it goes and adds the fetches at the end. bp is the
	// class's predictor statistics and ic its icache statistics per level,
	// both at the end of the trace.
	accesses int64
	bp       bpred.Stats
	ic       []cache.Stats
}

// sweepMp is one misprediction pass A lists for pass B: the event's offset
// in the chunk, its kind, and the wrong-path block the class fetches
// (NoBlock when nothing is fetched: misfetches, nonexistent targets).
type sweepMp struct {
	off   int32
	kind  uint8
	block isa.BlockID
}

// write appends the chunk's outcomes, the events ids from base on, to the
// class's streams: every misprediction pass A listed and, when the class is
// profiled, every event whose fetch misses, walking the profiler over the
// chunk with the class's wrong-path fetches interleaved at its
// mispredictions. scratch has one slot per level.
func (cls *sweepClass) write(prog *isa.Program, ids []isa.BlockID, base int, scratch []int) {
	pend, prof := cls.pend, cls.prof
	cls.pend = cls.pend[:0]
	if prof == nil {
		for _, mp := range pend {
			cls.appendMp(base+int(mp.off), mp.kind, prog.Blocks[ids[mp.off]], mp.block, nil)
		}
		return
	}
	for i, id := range ids {
		b := prog.Blocks[id]
		clear(scratch)
		prof.AccessRange(b.Addr, b.Size, scratch)
		if scratch[0] != 0 {
			cls.appendMiss(base+i, scratch)
		}
		if len(pend) == 0 || int(pend[0].off) != i {
			continue
		}
		mp := pend[0]
		pend = pend[1:]
		switch mp.kind {
		case mpTrap:
			if mp.block != isa.NoBlock {
				pb := prog.Blocks[mp.block]
				prof.AccessRange(pb.Addr, pb.Size, nil)
			}
		case mpFault:
			pb := prog.Blocks[mp.block]
			clear(scratch)
			prof.AccessRange(pb.Addr, pb.Size, scratch)
		}
		cls.appendMp(base+i, mp.kind, b, mp.block, scratch)
	}
}

// sweepEnrich is the shared enrichment replay's state, carried across
// chunks: the dcache (load outcomes are config-independent), the Bank
// holding one lane per predictor class (nil when nothing predicts), the
// load bitset, and the line traffic behind perfect-icache accounting. It
// drives the dcache and classifies mispredictions exactly as a live Sim's
// resolve does.
type sweepEnrich struct {
	prog    *isa.Program
	lp      []laneBlock // the program's table, for its memory flags
	dc      *cache.Cache
	bank    *bpred.Bank
	preds   []isa.BlockID // Bank.Step's per-class predictions
	classes []*sweepClass

	// lineCnt is each block's line count at the shared icache line size
	// (cache.LineSpan, as Cache.AccessRange fetches it).
	lineCnt     []int64
	commitLines int64

	// ld is the committed-load outcome stream every lane reads: the
	// chunk's, or the whole trace's so far when kept for the memo.
	ld loadBits
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
		first, last := cache.LineSpan(b.Addr, b.Size, shift)
		en.lineCnt[id] = int64(last - first + 1)
	}
	return en, nil
}

// step enriches committed event ev, the chunk's i-th: its load outcomes, and
// every class's misprediction of it.
func (en *sweepEnrich) step(ev *emu.BlockEvent, i int) {
	b := ev.Block
	en.commitLines += en.lineCnt[b.ID]
	if en.lp[b.ID].mem {
		en.ld.w, en.ld.n = loadOutcomes(en.ld.w, en.ld.n, en.dc, b, ev.MemAddrs)
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
		cls.pend = append(cls.pend, sweepMp{off: int32(i), kind: kind, block: wb})
	}
}

// sweepLane is one configuration's view of its class's outcomes: the
// outcome source of a Sim that runs as a sweep lane. It reads the entries
// the walk decoded from its class's streams at the current event.
type sweepLane struct {
	cls   *sweepClass
	lp    []laneBlock // the sweep's table, for wrongly fetched variants
	level int         // profiler level of this config's icache size; cls.levels() = perfect
	mp    mispredict

	idx int // the lane's configuration index
	pos int // the lane's slot in foldWorker.lanes

	// Folding (see foldWorker). A lane with a nil leader is live and steps
	// the kernel. A follower does no kernel work: its timing state is its
	// leader's shifted by shift, and its counters are own plus whatever the
	// leader accumulated since led. Its load-outcome cursor is stale.
	leader    *Sim
	shift     int64
	own, led  Result
	followers int // lanes following this one
}

// fetchMiss is the lane's outcome for the fetch probe of the current
// event; a perfect icache never misses.
func (sw *sweepLane) fetchMiss() int { return sw.cls.fetch[sw.level] }

// wrongMiss is the lane's outcome for the wrong-path fetch of its class's
// fault misprediction at the current event.
func (sw *sweepLane) wrongMiss() int { return sw.cls.wrongLevels[sw.level] }

// mispredictAt is the lane's misprediction outcome for the current event,
// nil when its class predicted right. The check inlines into the lockstep
// loop and leaves the rare mispredicting event to take.
func (sw *sweepLane) mispredictAt() *mispredict {
	if !sw.cls.mp {
		return nil
	}
	return sw.take()
}

// take builds the lane's copy of its class's misprediction at the current
// event. Kept out of line so that mispredictAt inlines.
//
//go:noinline
func (sw *sweepLane) take() *mispredict {
	sw.mp = mispredict{kind: sw.cls.kind}
	if sw.mp.kind == mpFault {
		sw.mp.wrong = &sw.lp[sw.cls.wrongBlock]
		sw.mp.wrongMiss = sw.wrongMiss()
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
	if sw.level < sw.cls.levels() {
		s.res.ICache = sw.cls.ic[sw.level]
	} else {
		s.res.ICache = cache.Stats{Accesses: sw.cls.accesses}
	}
	s.res.DCache = dc
	s.res.Bpred = sw.cls.bp
	return &s.res
}

// normalizeSweepConfigs applies Config, cache-geometry and predictor
// defaults so equality comparison is meaningful: {} and {HistoryBits: 8}
// are one predictor.
func normalizeSweepConfigs(cfgs []Config) []Config {
	norm := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		cfg.ICache = cfg.ICache.Normalize()
		cfg.DCache = cfg.DCache.Normalize()
		cfg.Predictor = cfg.Predictor.Normalize()
		norm[i] = cfg
	}
	return norm
}

// stripSweepAxes zeroes the two swept axes of a normalized config, the
// icache size and the predictor tables, leaving the machine every lane must
// share.
func stripSweepAxes(cfg Config) Config {
	cfg.ICache.SizeBytes = 0
	cfg.Predictor = bpred.Config{}
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
			return fmt.Errorf("uarch: sweep: config %d differs from config 0 beyond the icache size and predictor tables", i)
		}
	}
	return nil
}

// CanSweep reports whether Sweep accepts cfgs, and if not, why. A grid is
// sweepable when every configuration is valid, uses neither a trace cache
// nor multi-block fetch (their fetch paths observe per-config timing, which
// breaks the shared enrichment), and its normalized configurations differ
// from config 0 only in ICache.SizeBytes (perfect allowed) and the
// Predictor tables: one batch is one machine. Everything else — the core
// geometry and latencies, icache ways and line size, the dcache, and
// perfect-BP mode — must be shared. Every program kind sweeps. Rejected
// grids fall back to SimulateMany, which accepts any valid configurations.
func CanSweep(cfgs []Config) (bool, string) {
	if err := sweepCheck(normalizeSweepConfigs(cfgs)); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// Sweep simulates one trace under every configuration of a grid over icache
// size and predictor tables (see CanSweep), replaying the trace once — plus
// one cheap timing lane per configuration and one profiler walk per
// distinct predictor — instead of once per configuration. Results are
// returned in configuration order and are identical, field for field, to
// SimulateMany on the same inputs. The sweep runs on the calling goroutine.
func Sweep(t *emu.Trace, cfgs []Config) ([]*Result, error) {
	rs, _, err := sweep(context.Background(), t, cfgs, nil, nil, nil)
	return rs, err
}

// SweepPredecoded is Sweep with cooperative cancellation, reusing a prebuilt
// Predecode of the trace's program (nil, or one built for a different
// program or issue width, flattens fresh — results are identical either
// way). The sweep's replay checks ctx every 4096 events, and the call
// returns an error satisfying errors.Is(err, ctx.Err()) once the context is
// done. workers is ignored.
func SweepPredecoded(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded) ([]*Result, error) {
	rs, _, err := sweep(ctx, t, cfgs, pre, nil, nil)
	return rs, err
}

// sweep is SweepPredecoded with an outcome memo of the trace (nil for
// none), also counting its folding into st when st is non-nil. It reports
// what the memo did.
func sweep(ctx context.Context, t *emu.Trace, cfgs []Config, pre *Predecoded, memo *OutcomeMemo, st *foldStats) ([]*Result, MemoUse, error) {
	norm := normalizeSweepConfigs(cfgs)
	if err := sweepCheck(norm); err != nil {
		return nil, MemoAbsent, err
	}
	base := norm[0]
	prog := t.Program()
	tab := tableFor(prog, base.IssueWidth, pre)

	family := backend.For(prog.Kind).Policy().Predictor
	classOf, classCfgs := predictorClasses(norm, family)
	minSize, maxSize := icacheRange(norm)
	classes := make([]*sweepClass, max(len(classCfgs), 1))
	for c, lv := range classLevels(norm, classOf, len(classes)) {
		classes[c] = &sweepClass{outcomeStreams: newOutcomeStreams(lv)}
	}
	lanes := make([]laneSim, len(norm))
	for i, cfg := range norm {
		ls := &lanes[i]
		cls := classes[classOf[i]]
		ls.sw = sweepLane{cls: cls, lp: tab.lp, level: cls.levels(), idx: i}
		if sz := cfg.ICache.SizeBytes; sz != 0 {
			ls.sw.level = icacheLevels(minSize, sz) - 1
		}
		scr := getLaneScratch(cfg.WindowBlocks)
		ls.sim = Sim{
			cfg:    cfg,
			lp:     tab.lp,
			noMiss: tab.noMiss,
			scr:    scr,
			win:    scr.win,
			sw:     &ls.sw,
		}
	}
	fw := newFoldWorker(prog, classes, foldGroups(classOf, len(classes), lanes), st != nil)

	// When the memo records every class and the committed loads, the lanes
	// walk its records; otherwise the enrichment replay writes the
	// outcomes, keeping whole for the memo what it lacks. A memo of another
	// trace is ignored.
	if memo != nil && memo.tr != t {
		memo = nil
	}
	keys := memoKeys(base, classCfgs, classes, minSize, maxSize)
	have, loads := memo.lookup(keys, base.DCache)
	use := MemoAbsent
	var dc cache.Stats
	var err error
	if loads != nil && !slices.Contains(have, nil) {
		use = MemoServed
		dc, err = walkMemo(ctx, t.BlockIDs(), classes, have, loads, &fw)
	} else {
		rec := memo.newMemoRecording(keys, have, base.DCache, loads, classes)
		var en *sweepEnrich
		en, err = enrich(ctx, t, base, tab.lp, family, classCfgs, classes, minSize, maxSize, &fw, rec)
		if err == nil {
			dc = en.dc.Stats()
			if rec != nil {
				use = MemoMissed
				if rec.publish(&en.ld, classes, dc) {
					use = MemoRecorded
				}
			}
		}
	}
	if st != nil {
		*st = fw.stats
	}
	if err != nil {
		return nil, use, err
	}
	results := make([]*Result, len(norm))
	fw.finish(results, dc)
	return results, use, nil
}

// enrich writes every class's outcomes from one replay of the trace, and
// has the fold worker walk each chunk: the shared enrichment (pass A)
// writes the chunk's load outcomes and lists each class's mispredictions,
// each class writes its streams (pass B, walking its profiler over the
// chunk when it has one), then the lanes step through the chunk in lockstep
// — every lane consumes each predecoded block back to back while it is hot
// in cache. Each phase stays a tight loop over the whole chunk: fusing the
// three per event ran icache sweeps about 10% slower. Lanes never interact
// except through folding, which is exact. After the walk the chunk's
// outcomes are cut, except what rec, when non-nil, keeps for the memo.
// enrich leaves each class's end-of-trace numbers in it and returns the
// enrichment, whose dcache and load bitset the caller reads.
func enrich(ctx context.Context, t *emu.Trace, base Config, lp []laneBlock, family backend.PredictorSel, classCfgs []bpred.Config, classes []*sweepClass, minSize, maxSize int, fw *foldWorker, rec *memoRecording) (*sweepEnrich, error) {
	prog := t.Program()
	levels := 0
	for _, cls := range classes {
		if cls.levels() == 0 {
			continue
		}
		prof, err := cache.NewStackDist(base.ICache, minSize, maxSize)
		if err != nil {
			return nil, fmt.Errorf("uarch: sweep: %w", err)
		}
		cls.prof, levels = prof, cls.levels()
	}
	en, err := newSweepEnrich(prog, base, lp, family, classCfgs, classes)
	if err != nil {
		return nil, err
	}
	ids := t.BlockIDs()
	chunkLen := min(sweepChunk, len(ids))
	scratch := make([]int, levels)
	done, n, first := 0, 0, 0 // first: the bit at which the chunk's loads start
	err = t.ReplayContext(ctx, func(ev *emu.BlockEvent) error {
		en.step(ev, n)
		if n++; n < chunkLen && done+n < len(ids) {
			return nil
		}
		chunk := ids[done : done+n]
		for _, cls := range classes {
			cls.write(prog, chunk, done, scratch)
		}
		if rec != nil {
			rec.add(first, &en.ld, classes)
		}
		fw.walk(done, chunk, en.ld.w, first, len(ids))
		if rec == nil || !rec.loads {
			en.ld.cut()
		}
		for _, cls := range classes {
			if !cls.keep {
				cls.cut()
			}
		}
		done, n, first = done+n, 0, en.ld.n
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c, cls := range classes {
		cls.accesses += en.commitLines
		if en.bank != nil {
			cls.bp = en.bank.LaneStats(c)
		}
		if cls.prof != nil {
			cls.ic = make([]cache.Stats, levels)
			for l := range cls.ic {
				cls.ic[l] = cls.prof.StatsAt(l)
			}
		}
	}
	return en, nil
}

// walkMemo has the fold worker walk each chunk over the memo's records —
// have, one per class, and the load record loads — in place. It checks ctx
// once per chunk, the cadence Trace.ReplayContext keeps on the
// enrichment's path. It leaves each class's end-of-trace numbers in it and
// returns the dcache's statistics.
func walkMemo(ctx context.Context, ids []isa.BlockID, classes []*sweepClass, have []*memoClass, loads *memoLoads, fw *foldWorker) (cache.Stats, error) {
	for c, cls := range classes {
		rec := have[c]
		cls.mps, cls.misses = rec.mps, rec.misses
		cls.accesses, cls.bp, cls.ic = rec.accesses, rec.bp, rec.ic
	}
	for c, done := 0, 0; done < len(ids); c++ {
		if err := ctx.Err(); err != nil {
			return cache.Stats{}, err
		}
		chunk := ids[done:min(done+sweepChunk, len(ids))]
		fw.walk(done, chunk, loads.miss, int(loads.at[c]), len(ids))
		done += len(chunk)
	}
	return loads.stats, nil
}

// predictorClasses assigns each normalized configuration its predictor
// class: one Bank lane (and one pollution stream) per distinct normalized
// Predictor config, in first-appearance order, for the family the
// backend's policy selects (as New does). Perfect prediction and a backend
// without a predictor collapse to a single implicit class with no
// mispredictions, however the grid varies the predictor tables; classCfgs
// is then nil.
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

// classLevels returns the icache levels each of n predictor classes is
// profiled at: the grid's, for a class with a real-icache lane, and 0 for
// one without. Every profiled class covers one level range (the grid's
// min/max swept sizes), so every lane's size maps to the same level index.
func classLevels(norm []Config, classOf []int, n int) []int {
	minSize, maxSize := icacheRange(norm)
	levels := make([]int, n)
	for i, cfg := range norm {
		if cfg.ICache.SizeBytes != 0 {
			levels[classOf[i]] = icacheLevels(minSize, maxSize)
		}
	}
	return levels
}

// icacheLevels is the number of power-of-two icache sizes from minSize to
// maxSize, the levels a class's profiler covers (0 when every icache is
// perfect and minSize is 0). A profiled size's level is
// icacheLevels(minSize, size) - 1, as cache.StackDist.SizeAt numbers them.
func icacheLevels(minSize, maxSize int) int {
	if minSize == 0 {
		return 0
	}
	return bits.Len(uint(maxSize / minSize))
}

// SweepTableBytes bounds the bytes of the tables a sweep of cfgs over a
// program of kind sizes from the configurations alone: per predictor class
// its predictor (bpred.Config.TableBytes), its icache profiler
// (cache.StackDistBytes), and a chunk's pending mispredictions and stream
// entries at one of each an event; and per configuration its lane and
// pooled scratch. It excludes what the program and the trace size: the
// block tables, the chunk's load outcomes, and the span of each lane's FU
// ring, which follows the latencies in flight. cfgs must pass CanSweep.
func SweepTableBytes(kind isa.Kind, cfgs []Config) int64 {
	norm := normalizeSweepConfigs(cfgs)
	family := backend.For(kind).Policy().Predictor
	classOf, classCfgs := predictorClasses(norm, family)
	minSize, maxSize := icacheRange(norm)
	var total int64
	for c, lv := range classLevels(norm, classOf, max(len(classCfgs), 1)) {
		total += sweepChunk * (int64(unsafe.Sizeof(sweepMp{})) + entryBytes(lv))
		if c < len(classCfgs) {
			total += int64(classCfgs[c].TableBytes(family == backend.PredBSA))
		}
		if lv > 0 {
			total += int64(cache.StackDistBytes(norm[0].ICache, minSize, maxSize))
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

// foldGroups partitions the lanes into fold groups, one per predictor
// class: lane i is in group classOf[i] of n. A sweep runs one machine, so
// the lanes of a class share the mispredict streams, the predecoded table,
// the load-outcome stream and every kernel knob, and differ only in icache
// outcomes. Where nothing predicts, every lane is in the one class, and
// lanes of equal icache size are the same machine, which folds at the first
// attempt and never splits. Groups are numbered as the classes are, in
// order of first appearance. Within a group lanes run larger icache first,
// a perfect one largest of all: the order in which they are preferred as
// leaders, since a larger icache misses less and so splits its followers
// off less often.
func foldGroups(classOf []int, n int, lanes []laneSim) [][]*Sim {
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
			if classOf[i] == g {
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
	prog    *isa.Program
	classes []*sweepClass
	groups  [][]*Sim
	// lanes holds every lane: the live ones in [0, nLive), the followers
	// after them. A lane's sweepLane.pos is its slot.
	lanes  []*Sim
	nLive  int
	fr     *frontier // split scratch, borrowed from the first lane's pooled scratch
	record bool      // record fold edges in stats
	stats  foldStats
}

func newFoldWorker(prog *isa.Program, classes []*sweepClass, groups [][]*Sim, record bool) foldWorker {
	fw := foldWorker{prog: prog, classes: classes, groups: groups, record: record}
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

// walk steps the lanes through one chunk of the ne-event trace, the events
// ids from base on, whose committed loads' outcomes start at bit first of
// ldMiss. Before each event every class decodes its entries there; then
// followers split off, live lanes step the event, and lanes fold after it
// at the cadence.
func (fw *foldWorker) walk(base int, ids []isa.BlockID, ldMiss []uint64, first, ne int) {
	for _, s := range fw.lanes {
		s.ldMiss, s.ldOff = ldMiss, first
	}
	for _, c := range fw.classes {
		c.sync()
	}
	for i, id := range ids {
		ev := base + i
		for _, c := range fw.classes {
			c.at(ev, fw.prog, id)
		}
		fw.split()
		last := ev == ne-1
		fw.step(id, last)
		if ev%foldCadence == foldCadence-1 && !last {
			fw.fold()
		}
	}
}

// swap exchanges the lanes in slots p and q.
func (fw *foldWorker) swap(p, q int) {
	fw.lanes[p], fw.lanes[q] = fw.lanes[q], fw.lanes[p]
	fw.lanes[p].sw.pos, fw.lanes[q].sw.pos = p, q
}

// diverges reports whether a follower's outcome at the current event
// differs from its leader's: the fetch probe's misses, or at a fault
// misprediction the wrongly fetched variant's. The two share a class.
func (sw *sweepLane) diverges(ld *sweepLane) bool {
	return sw.fetchMiss() != ld.fetchMiss() || sw.cls.mp && sw.cls.kind == mpFault && sw.wrongMiss() != ld.wrongMiss()
}

// split materializes, before the current event steps, every follower whose
// outcome there differs from its leader's.
func (fw *foldWorker) split() {
	for p := fw.nLive; p < len(fw.lanes); p++ {
		s := fw.lanes[p]
		if s.sw.diverges(s.sw.leader.sw) {
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

// step runs the current event, block id, through the kernel on every live
// lane.
func (fw *foldWorker) step(id isa.BlockID, last bool) {
	for _, s := range fw.lanes[:fw.nLive] {
		lb := &s.lp[id]
		issue := s.issueAt(s.drain(len(lb.ops)) + s.icacheStall(s.sw.fetchMiss()))
		st := s.laneSchedule(lb, issue, &s.scr.regs, true)
		s.post(lb, issue, st, int64(lb.fetchCycles), s.sw.mispredictAt(), last)
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
