// Package uarch is the cycle-level timing model of the paper's processor:
// a sixteen-wide, dynamically scheduled machine in the HPS style (§4.3).
//
// Configuration mirrors the paper: the processor fetches and issues one
// block per cycle (an atomic block for the block-structured ISA, a basic
// block for the conventional ISA), holds up to 32 blocks / 512 operations in
// flight, renames registers (so only true dependencies stall), executes on
// sixteen uniform fully pipelined functional units with the Table-1
// latencies, retires one block per cycle in order, and has an L1 dcache plus
// a perfect L2 with a six-cycle access time. The L1 icache is the
// experimental variable. Branch prediction is the two-level adaptive
// predictor (conventional) or the paper's modified multi-successor variant
// (block-structured); perfect prediction is available for the Figure-4
// experiment.
//
// The model is execution-driven: it consumes the committed block stream the
// functional emulator produces. Correct-path timing is modeled exactly
// (dataflow, FU contention, cache misses); wrong-path work appears as
// recovery penalties. Trap (direction) mispredictions restart fetch when the
// mispredicted branch executes; fault (variant) mispredictions shadow-issue
// the wrongly fetched variant — a real static block — through the scheduler
// to find when its firing fault resolves, charging functional-unit slots for
// the discarded work, exactly the extra cost the paper attributes to fault
// mispredictions.
package uarch

import (
	"errors"
	"fmt"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// Config parameterizes the processor. Zero values take the paper's
// configuration.
type Config struct {
	IssueWidth   int // operations fetched/issued per cycle per block (16)
	WindowBlocks int // in-flight block limit (32)
	WindowOps    int // in-flight operation limit (512)
	NumFUs       int // uniform, fully pipelined functional units (16)
	// FrontEndDepth is the fetch-to-issue depth in cycles; a misprediction
	// restarts fetch and pays this refill (default 4).
	FrontEndDepth int
	// L2Latency is the perfect-L2 access time added to L1 misses (6).
	L2Latency int
	// FaultSquashPenalty is the extra recovery cost of a fault
	// misprediction beyond the front-end refill: squashing an atomic block
	// restores the whole block's rename state and reissues it, which the
	// paper identifies as the reason "mispredicted fault operations incur
	// an extra penalty not associated with ordinary branch mispredictions"
	// (default 4 cycles).
	FaultSquashPenalty int
	// ICache geometry; SizeBytes 0 = perfect (the Figures 6/7 reference
	// point).
	ICache cache.Config
	// DCache geometry; default 16 KB, 4-way.
	DCache cache.Config
	// Predictor sizes the branch predictor tables.
	Predictor bpred.Config
	// PerfectBP disables branch prediction entirely (every fetch is
	// correct): the Figure-4 configuration.
	PerfectBP bool
	// TraceCache, when enabled, adds a Rotenberg-style trace cache to the
	// fetch unit (see tracecache.go) — the paper's §3 related-work rival.
	TraceCache TraceCacheConfig
	// MultiBlock, when enabled, fetches several basic blocks per cycle via
	// multiple predictions and an interleaved icache (see multiblock.go) —
	// the paper's other §3 rival family. Costs one extra front-end stage.
	MultiBlock MultiBlockConfig
}

func (c Config) withDefaults() Config {
	if c.IssueWidth == 0 {
		c.IssueWidth = 16
	}
	if c.WindowBlocks == 0 {
		c.WindowBlocks = 32
	}
	if c.WindowOps == 0 {
		c.WindowOps = 512
	}
	if c.NumFUs == 0 {
		c.NumFUs = 16
	}
	if c.FrontEndDepth == 0 {
		c.FrontEndDepth = 4
	}
	if c.L2Latency == 0 {
		c.L2Latency = 6
	}
	if c.FaultSquashPenalty == 0 {
		c.FaultSquashPenalty = 4
	}
	if c.DCache.SizeBytes == 0 {
		c.DCache.SizeBytes = 16 * 1024
	}
	return c
}

// ErrBadConfig is wrapped by every Config.Validate failure, so callers can
// classify validation errors with errors.Is without matching message text.
var ErrBadConfig = errors.New("uarch: invalid configuration")

// Validate rejects configurations the timing engines would refuse or
// silently mis-simulate: non-positive machine widths, more functional units
// than the byte-count FU scoreboard holds (255), negative latencies, illegal
// cache or predictor-table geometry, and trace-cache sets/ways that break
// its power-of-two index masking. Every failure wraps ErrBadConfig and, for
// cache or predictor geometry, the underlying package's error. Defaults are
// applied first, so the zero Config validates.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.IssueWidth < 1:
		return fmt.Errorf("%w: issue width %d < 1", ErrBadConfig, d.IssueWidth)
	case d.WindowBlocks < 1:
		return fmt.Errorf("%w: window of %d blocks < 1", ErrBadConfig, d.WindowBlocks)
	case d.WindowOps < 1:
		return fmt.Errorf("%w: window of %d operations < 1", ErrBadConfig, d.WindowOps)
	case d.NumFUs < 1:
		return fmt.Errorf("%w: %d functional units < 1", ErrBadConfig, d.NumFUs)
	case d.NumFUs > 255:
		// The FU scoreboard holds per-cycle byte counts (kernel.go).
		return fmt.Errorf("%w: %d functional units > 255", ErrBadConfig, d.NumFUs)
	case d.FrontEndDepth < 0:
		return fmt.Errorf("%w: negative front-end depth %d", ErrBadConfig, d.FrontEndDepth)
	case d.L2Latency < 0:
		return fmt.Errorf("%w: negative L2 latency %d", ErrBadConfig, d.L2Latency)
	case d.FaultSquashPenalty < 0:
		return fmt.Errorf("%w: negative fault squash penalty %d", ErrBadConfig, d.FaultSquashPenalty)
	}
	if err := d.ICache.Validate(); err != nil {
		return fmt.Errorf("%w: icache: %w", ErrBadConfig, err)
	}
	if err := d.DCache.Validate(); err != nil {
		return fmt.Errorf("%w: dcache: %w", ErrBadConfig, err)
	}
	if err := d.Predictor.Validate(); err != nil {
		return fmt.Errorf("%w: predictor: %w", ErrBadConfig, err)
	}
	if tc := d.TraceCache; tc.Enabled() {
		tc = tc.withDefaults()
		if tc.Sets <= 0 || tc.Sets&(tc.Sets-1) != 0 {
			return fmt.Errorf("%w: trace cache sets %d is not a positive power of two", ErrBadConfig, tc.Sets)
		}
		if tc.Ways < 1 {
			return fmt.Errorf("%w: trace cache ways %d < 1", ErrBadConfig, tc.Ways)
		}
	}
	if mb := d.MultiBlock; mb.Enabled() {
		mb = mb.withDefaults()
		if mb.Banks < 1 {
			return fmt.Errorf("%w: multi-block banks %d < 1", ErrBadConfig, mb.Banks)
		}
	}
	return nil
}

// Result summarizes a timing run.
type Result struct {
	Cycles int64
	Ops    int64 // retired operations
	Blocks int64 // retired blocks

	TrapMispredicts  int64 // wrong trap/branch direction (or wrong return target)
	FaultMispredicts int64 // right direction, wrong enlarged variant
	Misfetches       int64 // predictor had no target (BTB/RAS miss)

	ICache cache.Stats
	DCache cache.Stats
	Bpred  bpred.Stats
	Trace  TraceCacheStats
	Multi  MultiBlockStats

	FetchStallICache  int64 // cycles fetch stalled on icache misses
	FetchStallWindow  int64 // cycles fetch stalled on window capacity
	RecoveryStall     int64 // cycles fetch stalled on misprediction recovery
	FetchStallControl int64 // cycles fetch serialized on unresolved control (basicblocker)

	FusedPairs int64 // macro-op pairs fused at decode (fused backend)
}

// IPC returns retired operations per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Cycles)
}

// AvgBlockSize returns retired operations per retired block (Figure 5's
// metric: blocks squashed on mispredictions never reach this stream).
func (r *Result) AvgBlockSize() float64 {
	if r.Blocks == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Blocks)
}

// Mispredicts returns all misprediction events.
func (r *Result) Mispredicts() int64 {
	return r.TrapMispredicts + r.FaultMispredicts + r.Misfetches
}

// Sim is one configuration's timing state — the kernel's window, FU ring,
// register-ready times and result — plus the source its outcomes come from.
// A Sim built by New is live: its own icache, dcache and predictor decide
// each committed block's outcomes (OnBlock). A sweep lane is a Sim whose
// outcomes come from the sweep's shared enrichment tables instead (sw).
type Sim struct {
	cfg    Config
	prog   *isa.Program
	policy backend.Policy
	lp     []laneBlock // predecoded table at this Sim's issue width (shared, read-only)
	noMiss []uint64    // zeroed load outcomes for shadow passes (shared, read-only)

	// Live outcome source; unused on sweep lanes.
	pred bpred.Predictor
	ic   *cache.Cache
	dc   *cache.Cache
	tc   *traceCache
	mb   *multiBlock

	cycle      int64 // current fetch cycle
	nextFetch  int64
	lastRetire int64
	scr        *laneScratch  // FU ring, register-ready tables, window ring
	win        []windowEntry // scr.win: ring buffer of in-flight blocks
	winHead    int
	winLen     int
	winOps     int      // running in-flight (window) operation count
	ldMiss     []uint64 // committed load outcomes: a bit per load, set on a dcache miss
	ldOff      int      // cursor into ldMiss: the next load's bit
	mp         mispredict
	res        Result

	// sw, when non-nil, marks this Sim as a sweep lane (see sweep.go).
	sw *sweepLane
}

// New builds a live timing simulator for the program, with its own
// predecoded table. The fetch policy — predictor family, serialization,
// fusion — follows the program kind's backend (backend.For).
func New(prog *isa.Program, cfg Config) (*Sim, error) {
	return newSim(prog, cfg, nil)
}

// newSim is New over a shared table: tab serves when it was built for prog
// at the configuration's issue width, and otherwise (nil, or built for
// another program or width) prog is flattened afresh (tableFor). The Sim's
// scratch comes from the lane pool.
func newSim(prog *isa.Program, cfg Config, tab *Predecoded) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("uarch: icache: %w", err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("uarch: dcache: %w", err)
	}
	tab = tableFor(prog, cfg.IssueWidth, tab)
	scr := getLaneScratch(cfg.WindowBlocks)
	s := &Sim{
		cfg:    cfg,
		prog:   prog,
		policy: backend.For(prog.Kind).Policy(),
		lp:     tab.lp,
		noMiss: tab.noMiss,
		ic:     ic,
		dc:     dc,
		scr:    scr,
		win:    scr.win,
	}
	if !cfg.PerfectBP {
		switch s.policy.Predictor {
		case backend.PredBSA:
			s.pred = bpred.NewBSA(cfg.Predictor)
		case backend.PredNone:
			// Non-speculative front end: no predictor at all.
		default:
			s.pred = bpred.NewTwoLevel(cfg.Predictor)
		}
	}
	if cfg.TraceCache.Enabled() {
		s.tc = newTraceCache(cfg.TraceCache)
	}
	if cfg.MultiBlock.Enabled() {
		s.mb = newMultiBlock(cfg.MultiBlock, cfg.IssueWidth)
		// The alignment/merge network adds a pipeline stage (§3): deeper
		// front end, costlier mispredictions.
		s.cfg.FrontEndDepth++
	}
	return s, nil
}

// OnBlock consumes one committed block event through the timing kernel,
// with the Sim's own caches and predictor deciding its outcomes. Pass it as
// the emulator's handler.
func (s *Sim) OnBlock(ev *emu.BlockEvent) error {
	b := ev.Block
	lb := &s.lp[b.ID]
	fetch := s.drain(len(lb.ops))
	cycles := int64(lb.fetchCycles)
	if s.tc != nil || s.mb != nil {
		var covered bool
		if fetch, covered = s.fetchRivals(b, fetch); covered {
			// A covered block consumed no fetch slot, so the next block may
			// fetch in the same cycle.
			cycles = 0
		}
	} else {
		fetch += s.icacheStall(s.ic.AccessRange(b.Addr, b.Size))
	}
	issue := s.issueAt(fetch)
	mp := s.resolve(ev)
	if mp != nil {
		if s.tc != nil {
			s.tc.breakWindow()
		}
		if s.mb != nil {
			s.mb.breakGroup()
		}
	}
	st := s.laneSchedule(lb, issue, &s.scr.regs, true)
	s.post(lb, issue, st, cycles, mp, ev.Next == isa.NoBlock)
	if s.tc != nil {
		s.tc.retire(b)
	}
	return nil
}

// fetchRivals is the fetch step under a trace cache or multi-block fetch,
// whose decisions read the fetch cycle: it returns the block's fetch cycle
// and whether the block shares an earlier block's fetch slot. It probes the
// icache itself — before resolve's wrong-path probes, as the machine does.
func (s *Sim) fetchRivals(b *isa.Block, fetch int64) (int64, bool) {
	// Trace cache: a block covered by an open trace window shares the
	// window's fetch cycle and bypasses the icache (the trace cache stores
	// the operations).
	covered := false
	if s.tc != nil {
		_, covered = s.tc.onFetch(b, fetch)
	}
	// Multi-block fetch: join the current fetch group when the predictor
	// and the icache banks allow it.
	if s.mb != nil && !covered {
		if c, joined := s.mb.onFetch(b, fetch, s.cfg.ICache.LineBytes); joined {
			fetch = c
			covered = true
			// Group members still access the icache (they come from it),
			// but any miss breaks the group.
			if misses := s.ic.AccessRange(b.Addr, b.Size); misses > 0 {
				fetch = s.nextFetch + s.icacheStall(misses)
				covered = false
				s.mb.breakGroup()
			}
		}
	}
	if !covered {
		if misses := s.ic.AccessRange(b.Addr, b.Size); misses > 0 {
			fetch += s.icacheStall(misses)
			if s.mb != nil {
				s.mb.breakGroup()
			}
		}
	}
	return fetch, covered
}

// resolve is the live outcome source for everything after the fetch probe.
// In the machine's order it drives the block's committed loads and stores
// through the dcache, steps the predictor, and on a misprediction fetches the
// wrong path through the icache. It returns the misprediction (nil when the
// prediction was right); the load outcomes land in s.ldMiss for the
// scheduler.
func (s *Sim) resolve(ev *emu.BlockEvent) *mispredict {
	b := ev.Block
	s.ldMiss, s.ldOff = s.ldMiss[:0], 0
	if s.lp[b.ID].mem {
		s.ldMiss, _ = loadOutcomes(s.ldMiss, 0, s.dc, b, ev.MemAddrs)
	}
	if ev.Next == isa.NoBlock || s.pred == nil {
		return nil
	}
	predicted := s.pred.Step(b, ev.Next, ev.Taken, ev.SuccIdx)
	if predicted == ev.Next {
		return nil
	}
	kind, wb := classify(s.prog, b, predicted, ev.Next)
	s.mp = mispredict{kind: kind}
	if wb != isa.NoBlock {
		wrong := &s.lp[wb]
		misses := s.ic.AccessRange(wrong.addr, wrong.size)
		// A trap misprediction's wrong path only pollutes the icache.
		if kind == mpFault {
			s.mp.wrong, s.mp.wrongMiss = wrong, misses
		}
	}
	return &s.mp
}

// loadOutcomes drives block b's committed memory accesses through dc in
// operation order (every committed block executes all of its static loads
// and stores, so memAddrs is exactly the access sequence) and appends one
// bit per load to the n-bit bitset dst, set when the load missed. It
// returns the bitset and its new length.
func loadOutcomes(dst []uint64, n int, dc *cache.Cache, b *isa.Block, memAddrs []uint32) ([]uint64, int) {
	memIdx := 0
	for i := range b.Ops {
		switch b.Ops[i].Opcode {
		case isa.LD:
			hit := true
			if memIdx < len(memAddrs) {
				hit = dc.Access(memAddrs[memIdx])
				memIdx++
			}
			if n&63 == 0 {
				dst = append(dst, 0)
			}
			if !hit {
				dst[n>>6] |= 1 << (n & 63)
			}
			n++
		case isa.ST:
			if memIdx < len(memAddrs) {
				dc.Access(memAddrs[memIdx])
				memIdx++
			}
		}
	}
	return dst, n
}

// Window reports the in-flight occupancy — blocks and operations the window
// currently holds — after the last consumed event. internal/check uses it to
// audit the machine's capacity invariants (at most WindowBlocks blocks and
// WindowOps operations in flight) during a simulation.
func (s *Sim) Window() (blocks, ops int) { return s.winLen, s.winOps }

// ResolvedConfig returns the simulator's configuration with defaults applied.
func (s *Sim) ResolvedConfig() Config { return s.cfg }

// Finish returns the accumulated result. Call after the emulator completes.
func (s *Sim) Finish() *Result {
	s.res.Cycles = s.lastRetire
	s.res.ICache = s.ic.Stats()
	s.res.DCache = s.dc.Stats()
	if s.pred != nil {
		s.res.Bpred = s.pred.Stats()
	}
	if s.tc != nil {
		s.res.Trace = s.tc.stats
	}
	if s.mb != nil {
		s.res.Multi = s.mb.stats
	}
	return &s.res
}

// RunProgram is the convenience entry point: functionally emulate prog,
// feeding the committed stream through a fresh timing simulator.
func RunProgram(prog *isa.Program, cfg Config, emuCfg emu.Config) (*Result, *emu.Result, error) {
	sim, err := New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer sim.release()
	er, err := emu.New(prog, emuCfg).Run(sim.OnBlock)
	if err != nil {
		return nil, nil, err
	}
	return sim.Finish(), er, nil
}
