package uarch

import (
	"fmt"
	"slices"
	"sync"

	"bsisa/internal/backend"
	"bsisa/internal/isa"
)

// This file is the timing kernel: the one copy of the cost model every
// engine runs. Per committed block it drains the window, stalls fetch on
// icache misses, schedules the block's predecoded operations through rename,
// dataflow and the functional units, retires in order, recovers from a
// misprediction (shadow-issuing the wrong variant of a fault
// misprediction), and serializes fetch behind unresolved control. Where the
// outcomes come from is not its business. A live Sim (uarch.go) feeds it from
// its own icache, dcache and predictor; a sweep lane (sweep.go) feeds it from
// the shared enrichment tables. Both yield the same per-event values — the
// fetch probe's misses, one miss byte per committed load, the misprediction
// kind, the wrongly fetched variant and its icache misses — so the kernel
// takes them as arguments.
//
// The backend's fetch policy is applied here once, in the predecoded table
// (flatten): macro-op fusion is baked into the op stream and serialization
// into a per-block flag, so no engine branches on the ISA kind.

// laneOp packs one predecoded operation into a single word so the scheduling
// loop extracts fields with shifts instead of memory round-trips (byte order,
// low to high: r0, r1, r2, w1, w2, flags, lat, unused; lat fits a byte
// because Table 1 latencies top out at 8 cycles). The register encoding makes
// the loop branchless: unused read slots are padded with isa.RegZero, whose
// ready slot is never written, and unused write slots point at laneRegSink,
// which is never read — so every op does exactly three ready-table reads and
// two writes, no count checks.
type laneOp uint64

func packLaneOp(r0, r1, r2, w1, w2, flags, lat uint8) laneOp {
	return laneOp(uint64(r0) | uint64(r1)<<8 | uint64(r2)<<16 |
		uint64(w1)<<24 | uint64(w2)<<32 | uint64(flags)<<40 | uint64(lat)<<48)
}

const (
	laneLD uint8 = 1 << iota
	laneTerm
	laneFault
)

// laneRegSink is the write target of ops without one: a scratch slot past
// the architectural registers that no read slot can name.
const laneRegSink = isa.NumRegs

// laneRegsUsed bounds the live prefix of a laneRegs table: the architectural
// registers plus the sink.
const laneRegsUsed = isa.NumRegs + 1

// laneRegs is a register-ready table. It is sized to the uint8 index space so
// the scheduling loop needs no bounds checks or masking; only the first
// laneRegsUsed slots are ever touched, so the dead tail costs no cache
// traffic.
type laneRegs [256]int64

// laneBlock is a predecoded block, indexed by BlockID. ops is the block as the
// window and the functional units see it — a fused pair is one op — while
// numOps stays architectural: it is what the block retires and what its
// fetch streams.
type laneBlock struct {
	ops         []laneOp
	numOps      int32
	fetchCycles int32
	addr        uint32
	size        uint32
	serialize   bool // fetch waits for the terminator (Policy.SerializeControl)
	mem         bool // the block loads or stores
}

// flatten predecodes every block of prog once for all the Sims and lanes
// that run it at issueWidth, applying the backend's fetch policy. The op
// tables of all blocks live in one arena allocation so walks stream through
// contiguous memory instead of chasing per-block slices.
func flatten(prog *isa.Program, issueWidth int) *Predecoded {
	pol := backend.PolicyFor(prog.Kind)
	lp := make([]laneBlock, len(prog.Blocks))
	total := 0
	for _, b := range prog.Blocks {
		if b != nil {
			total += len(b.Ops)
		}
	}
	arena := make([]laneOp, 0, total)
	var pairs []int
	maxOps := 0
	for id, b := range prog.Blocks {
		if b == nil {
			continue
		}
		lb := &lp[id]
		setBlockMeta(lb, b, pol, issueWidth)
		if pol.FuseMacroOps {
			pairs = fusePairs(pairs[:0], b.Ops)
		}
		start := len(arena)
		for i, pi := 0, 0; i < len(b.Ops); i++ {
			var second *isa.Op
			if pi < len(pairs) && pairs[pi] == i {
				second = &b.Ops[i+1]
				pi++
			}
			arena = append(arena, packOp(&b.Ops[i], second))
			if second != nil {
				i++
			}
		}
		lb.ops = arena[start:len(arena):len(arena)]
		maxOps = max(maxOps, len(lb.ops))
	}
	return &Predecoded{prog: prog, issueWidth: issueWidth, lp: lp, noMiss: make([]uint8, maxOps+1)}
}

// packOp predecodes one window operation: a alone, or the fused pair a, b.
// A pair issues as one macro-op: it reads a's sources plus b's sources other
// than a's destination (the fused datapath forwards it internally), writes
// both destinations, takes the slower half's latency, and carries b's load,
// terminator and fault flags (fusible never lets a be any of those). Every
// fusion pattern fits three sources and two destinations; a pair that did
// not would be a fusible bug, so packOp panics rather than drop a dependency.
func packOp(a, b *isa.Op) laneOp {
	var rs [3]uint8
	reads, n := a.ReadRegs()
	for k := 0; k < n; k++ {
		rs[k] = uint8(reads[k])
	}
	w1, w2 := uint8(laneRegSink), uint8(laneRegSink)
	if rd, ok := a.Writes(); ok && rd != isa.RegZero {
		w1 = uint8(rd)
	}
	last, lat := a, a.Opcode.Latency()
	if b != nil {
		rd1, _ := a.Writes()
		reads2, n2 := b.ReadRegs()
		for k := 0; k < n2; k++ {
			if r := reads2[k]; r != isa.RegZero && r != rd1 {
				if n == len(rs) {
					panic(fmt.Sprintf("uarch: fused %v+%v reads more than three registers", a.Opcode, b.Opcode))
				}
				rs[n] = uint8(r)
				n++
			}
		}
		if rd, ok := b.Writes(); ok && rd != isa.RegZero {
			w2 = uint8(rd)
		}
		last, lat = b, max(lat, b.Opcode.Latency())
	}
	if last.Opcode == isa.CALL {
		if w2 != laneRegSink {
			panic(fmt.Sprintf("uarch: fused %v+%v writes more than two registers", a.Opcode, b.Opcode))
		}
		w2 = uint8(isa.RegLR)
	}
	var flags uint8
	if last.Opcode == isa.LD {
		flags |= laneLD
	}
	if last.Opcode.IsBlockEnd() {
		flags |= laneTerm
	}
	if last.Opcode == isa.FAULT {
		flags |= laneFault
	}
	return packLaneOp(rs[0], rs[1], rs[2], w1, w2, flags, uint8(lat))
}

// setBlockMeta fills a table entry's program-derived fields — everything but
// the op table — for flatten and the predecode codec alike.
func setBlockMeta(lb *laneBlock, b *isa.Block, pol backend.Policy, issueWidth int) {
	lb.numOps = int32(len(b.Ops))
	lb.fetchCycles = fetchCycles(len(b.Ops), issueWidth)
	lb.addr, lb.size = b.Addr, b.Size
	lb.serialize = pol.SerializeControl && serializesFetch(b.Terminator())
	for i := range b.Ops {
		if op := b.Ops[i].Opcode; op == isa.LD || op == isa.ST {
			lb.mem = true
			break
		}
	}
}

// fetchCycles is how many cycles fetching n operations takes (long
// conventional basic blocks stream over several).
func fetchCycles(n, issueWidth int) int32 {
	return int32(max(1, (n+issueWidth-1)/issueWidth))
}

// atWidth returns p's table re-timed for another issue width: only the
// per-block metadata is copied, the op arena is shared.
func (p *Predecoded) atWidth(issueWidth int) *Predecoded {
	if issueWidth == p.issueWidth {
		return p
	}
	lp := append([]laneBlock(nil), p.lp...)
	for i := range lp {
		if lp[i].ops != nil {
			lp[i].fetchCycles = fetchCycles(int(lp[i].numOps), issueWidth)
		}
	}
	return &Predecoded{prog: p.prog, issueWidth: issueWidth, lp: lp, noMiss: p.noMiss}
}

// tablesFor returns the table each configuration runs on. Configurations of
// one issue width share one table; pre serves when it was built for prog,
// and otherwise prog is flattened once per call.
func tablesFor(prog *isa.Program, cfgs []Config, pre *Predecoded) []*Predecoded {
	if pre != nil && pre.prog != prog {
		pre = nil
	}
	tabs := make([]*Predecoded, len(cfgs))
next:
	for i, cfg := range cfgs {
		iw := cfg.EffectiveIssueWidth()
		for _, t := range tabs[:i] {
			if t.issueWidth == iw {
				tabs[i] = t
				continue next
			}
		}
		if pre == nil {
			pre = flatten(prog, iw)
		}
		tabs[i] = pre.atWidth(iw)
	}
	return tabs
}

// laneRing is the functional-unit scoreboard: a power-of-two ring of
// per-cycle busy counts with a sliding base. The scheduler only ever claims
// cycles at or after the current fetch cycle, so the ring covers every access
// without hashing. Counts are bytes, so the rings of a whole lockstep lane
// group stay L1-resident together; Config.Validate bounds NumFUs at 255.
type laneRing struct {
	counts []uint8
	mask   int64
	base   int64 // counts hold cycles in [base, base+len(counts))
}

func newLaneRing() laneRing {
	// Power of two; grows on demand. The initial size is deliberately small:
	// the ring only needs to span the latencies in flight (tens of cycles —
	// grow handles the rare deep stall), and a whole lockstep group's rings
	// must stay L1-resident together, so every kilobyte here is multiplied
	// by the lane count.
	const size = 256
	return laneRing{counts: make([]uint8, size), mask: size - 1}
}

// advance slides the window start to cycle, clearing vacated slots. Cycles
// before the current fetch cycle can never be claimed again (operations
// issue strictly after fetch), so their counts are dead.
func (r *laneRing) advance(cycle int64) {
	n := cycle - r.base
	if n <= 0 {
		return
	}
	if n >= int64(len(r.counts)) {
		clear(r.counts)
	} else if n <= 4 {
		// Typical step: a block's one-to-few fetch cycles.
		for c := r.base; c < cycle; c++ {
			r.counts[c&r.mask] = 0
		}
	} else {
		// Stall-sized steps (icache misses, recovery) clear a run at a time;
		// the run wraps at most once.
		i := r.base & r.mask
		j := cycle & r.mask
		if i < j {
			clear(r.counts[i:j])
		} else {
			clear(r.counts[i:])
			clear(r.counts[:j])
		}
	}
	r.base = cycle
}

// grow doubles the ring until cycle fits, re-placing live counts.
func (r *laneRing) grow(cycle int64) {
	n := len(r.counts)
	for int64(n) <= cycle-r.base {
		n *= 2
	}
	nc := make([]uint8, n)
	nm := int64(n - 1)
	for c := r.base; c < r.base+int64(len(r.counts)); c++ {
		nc[c&nm] = r.counts[c&r.mask]
	}
	r.counts, r.mask = nc, nm
}

// laneScratch is the mutable timing working set — FU ring, register-ready
// tables, window ring — pooled across engine calls (keyed by window
// geometry) so repeated daemon requests stop re-allocating it. fr is a
// frontier buffer a sweep's fold worker borrows for splits (sweep.go).
type laneScratch struct {
	ring   laneRing
	regs   laneRegs
	shadow laneRegs
	win    []windowEntry
	fr     frontier
}

// laneScratchPools maps WindowBlocks -> *sync.Pool of *laneScratch. The key
// is the one geometry knob baked into the scratch (the window ring's
// length); everything else resets cheaply.
var laneScratchPools sync.Map

func getLaneScratch(windowBlocks int) *laneScratch {
	p, ok := laneScratchPools.Load(windowBlocks)
	if !ok {
		p, _ = laneScratchPools.LoadOrStore(windowBlocks, &sync.Pool{})
	}
	if v := p.(*sync.Pool).Get(); v != nil {
		s := v.(*laneScratch)
		s.reset()
		return s
	}
	return &laneScratch{
		ring: newLaneRing(),
		// The pop-before-push discipline in drain keeps at most WindowBlocks
		// entries in flight; one spare slot keeps the ring arithmetic simple.
		win: make([]windowEntry, windowBlocks+1),
	}
}

func putLaneScratch(windowBlocks int, s *laneScratch) {
	if p, ok := laneScratchPools.Load(windowBlocks); ok {
		p.(*sync.Pool).Put(s)
	}
}

func (s *laneScratch) reset() {
	clear(s.ring.counts)
	s.ring.base = 0
	clear(s.regs[:laneRegsUsed])
	clear(s.shadow[:laneRegsUsed])
	// win needs no clear: pushWindow writes every entry before popWindow
	// reads it.
}

// release returns a Sim's scratch to the pool once its engine is done with
// it; the Sim must not consume further events.
func (s *Sim) release() {
	putLaneScratch(s.cfg.WindowBlocks, s.scr)
	s.scr, s.win = nil, nil
}

type windowEntry struct {
	retire int64
	ops    int
}

// popWindow retires the oldest in-flight block from the window ring.
func (s *Sim) popWindow() {
	s.winOps -= s.win[s.winHead].ops
	s.winHead++
	if s.winHead == len(s.win) {
		s.winHead = 0
	}
	s.winLen--
}

// pushWindow adds a newly fetched block to the window ring.
func (s *Sim) pushWindow(e windowEntry) {
	i := s.winHead + s.winLen
	if i >= len(s.win) {
		i -= len(s.win)
	}
	s.win[i] = e
	s.winLen++
	s.winOps += e.ops
}

// drain waits for window capacity for a block of winOps window operations
// and returns the earliest cycle its fetch can start.
func (s *Sim) drain(winOps int) int64 {
	fetch := s.nextFetch
	for s.winLen > 0 {
		head := s.win[s.winHead].retire
		if s.winLen >= s.cfg.WindowBlocks || s.winOps+winOps > s.cfg.WindowOps {
			if head > fetch {
				s.res.FetchStallWindow += head - fetch
				fetch = head
			}
			s.popWindow()
			continue
		}
		if head <= fetch {
			s.popWindow()
			continue
		}
		break
	}
	return fetch
}

// icacheStall charges the fetch stall of an icache probe that missed
// `misses` lines — the L2 latency for the first, a cycle for each further
// line — and returns it.
func (s *Sim) icacheStall(misses int) int64 {
	if misses == 0 {
		return 0
	}
	stall := int64(s.cfg.L2Latency + misses - 1)
	s.res.FetchStallICache += stall
	return stall
}

// issueAt fetches the block at cycle fetch: the FU ring slides up to it, and
// the block issues one front-end depth later.
func (s *Sim) issueAt(fetch int64) int64 {
	s.cycle = fetch
	s.scr.ring.advance(fetch)
	return fetch + int64(s.cfg.FrontEndDepth)
}

// schedTimes reports when a scheduled block's pieces resolve.
type schedTimes struct {
	done       int64 // last operation completes
	term       int64 // terminator (trap/branch/return) resolves
	firstFault int64 // first fault operation resolves (0 if none)
}

// laneFlagState is the minority-path scheduling state — load outcomes,
// terminator and fault times. It lives behind a pointer in a noinline helper
// so the hot loop's live set fits the register file; inlining it back (or
// folding these updates into per-op masked arithmetic) measurably slows the
// scheduler down.
type laneFlagState struct {
	ldMiss     []uint8
	ldOff      int
	l2         int64
	term       int64
	firstFault int64
}

// flagged applies a flagged op's extra scheduling: L2 latency on a missing
// load, terminator and first-fault completion times. Shadow passes wire the
// zeroed miss table in, so wrong-path loads assume L1 hits (wrong-path
// addresses are not architectural).
//
//go:noinline
func (fs *laneFlagState) flagged(flags uint8, done int64) int64 {
	if flags&laneLD != 0 {
		if fs.ldMiss[fs.ldOff] != 0 {
			done += fs.l2
		}
		fs.ldOff++
	}
	if flags&laneTerm != 0 {
		fs.term = done
	}
	if flags&laneFault != 0 && fs.firstFault == 0 {
		fs.firstFault = done
	}
	return done
}

// laneSchedule runs a block through rename, dataflow and the functional
// units from cycle issue. A committed pass reads the Sim's load outcomes and
// advances their cursor; a shadow (wrong-path) pass only consumes FU slots.
func (s *Sim) laneSchedule(lb *laneBlock, issue int64, regs *laneRegs, commit bool) schedTimes {
	// FU allocation is inlined with the ring state held in locals: this loop
	// runs once per operation per lane and dominates simulation time. grow is
	// the only call that moves counts; advance (which moves base) never runs
	// mid-block.
	r := &s.scr.ring
	base, counts := r.base, r.counts
	if len(counts) == 0 {
		return schedTimes{done: issue, term: issue + 1} // unreachable: newLaneRing allocates
	}
	// mask mirrors len(counts)-1 so ready&mask provably stays in bounds.
	mask := uint64(len(counts)) - 1
	limit := uint8(s.cfg.NumFUs)
	fs := laneFlagState{l2: int64(s.cfg.L2Latency), term: issue + 1, ldMiss: s.noMiss}
	if commit {
		fs.ldMiss = s.ldMiss
		fs.ldOff = s.ldOff
	}
	stDone := issue
	for _, op := range lb.ops {
		// Branchless operand reads: unused slots read RegZero's slot, which
		// is never written and so never raises ready. max compiles to
		// conditional moves — these compares are data-dependent, so branches
		// here would mispredict constantly.
		ready := max(issue, regs[op&0xff], regs[(op>>8)&0xff], regs[(op>>16)&0xff])
		// No ready < base clamp is needed: ready starts at issue, which is at
		// or past the fetch cycle the ring base was advanced to.
		for {
			if uint64(ready-base) > mask {
				r.grow(ready)
				counts = r.counts
				if len(counts) == 0 {
					break // unreachable: grow only enlarges
				}
				mask = uint64(len(counts)) - 1
			}
			if c := counts[uint64(ready)&mask]; c < limit {
				counts[uint64(ready)&mask] = c + 1
				break
			}
			ready++
		}
		done := ready + int64(op>>48)
		if flags := uint8(op >> 40); flags != 0 {
			// Flagged ops (loads, terminators, faults) are the minority.
			done = fs.flagged(flags, done)
		}
		// Branchless writes: ops without a destination write the sink slot,
		// which is never read.
		regs[(op>>24)&0xff] = done
		regs[(op>>32)&0xff] = done
		stDone = max(stDone, done)
	}
	if commit {
		s.ldOff = fs.ldOff
	}
	return schedTimes{done: stDone, term: fs.term, firstFault: fs.firstFault}
}

// laneSchedule2 is laneSchedule for two committed sweep lanes at once. Every
// lane schedules the identical operation stream (the per-width tables share
// one op arena), so fusing a pair gives the core two independent dependency
// chains per op where the single-lane loop is bound by one serial regs
// store-to-load chain. Results are bit-identical to two laneSchedule calls:
// the lanes touch disjoint state except the read-only shared streams.
func laneSchedule2(sa, sb *Sim, lb *laneBlock, issueA, issueB int64) (schedTimes, schedTimes) {
	ra, rb := &sa.scr.ring, &sb.scr.ring
	regsA, regsB := &sa.scr.regs, &sb.scr.regs
	baseA, countsA := ra.base, ra.counts
	baseB, countsB := rb.base, rb.counts
	if len(countsA) == 0 || len(countsB) == 0 {
		// Unreachable: newLaneRing allocates.
		return schedTimes{done: issueA, term: issueA + 1}, schedTimes{done: issueB, term: issueB + 1}
	}
	maskA := uint64(len(countsA)) - 1
	maskB := uint64(len(countsB)) - 1
	limitA := uint8(sa.cfg.NumFUs)
	limitB := uint8(sb.cfg.NumFUs)
	fsA := laneFlagState{l2: int64(sa.cfg.L2Latency), term: issueA + 1, ldMiss: sa.ldMiss, ldOff: sa.ldOff}
	fsB := laneFlagState{l2: int64(sb.cfg.L2Latency), term: issueB + 1, ldMiss: sb.ldMiss, ldOff: sb.ldOff}
	stDoneA, stDoneB := issueA, issueB
	for _, op := range lb.ops {
		readyA := max(issueA, regsA[op&0xff], regsA[(op>>8)&0xff], regsA[(op>>16)&0xff])
		readyB := max(issueB, regsB[op&0xff], regsB[(op>>8)&0xff], regsB[(op>>16)&0xff])
		for {
			if uint64(readyA-baseA) > maskA {
				ra.grow(readyA)
				countsA = ra.counts
				if len(countsA) == 0 {
					break // unreachable: grow only enlarges
				}
				maskA = uint64(len(countsA)) - 1
			}
			if c := countsA[uint64(readyA)&maskA]; c < limitA {
				countsA[uint64(readyA)&maskA] = c + 1
				break
			}
			readyA++
		}
		for {
			if uint64(readyB-baseB) > maskB {
				rb.grow(readyB)
				countsB = rb.counts
				if len(countsB) == 0 {
					break // unreachable: grow only enlarges
				}
				maskB = uint64(len(countsB)) - 1
			}
			if c := countsB[uint64(readyB)&maskB]; c < limitB {
				countsB[uint64(readyB)&maskB] = c + 1
				break
			}
			readyB++
		}
		lat := int64(op >> 48)
		doneA := readyA + lat
		doneB := readyB + lat
		if flags := uint8(op >> 40); flags != 0 {
			doneA = fsA.flagged(flags, doneA)
			doneB = fsB.flagged(flags, doneB)
		}
		regsA[(op>>24)&0xff] = doneA
		regsA[(op>>32)&0xff] = doneA
		regsB[(op>>24)&0xff] = doneB
		regsB[(op>>32)&0xff] = doneB
		stDoneA = max(stDoneA, doneA)
		stDoneB = max(stDoneB, doneB)
	}
	sa.ldOff = fsA.ldOff
	sb.ldOff = fsB.ldOff
	return schedTimes{done: stDoneA, term: fsA.term, firstFault: fsA.firstFault},
		schedTimes{done: stDoneB, term: fsB.term, firstFault: fsB.firstFault}
}

// Misprediction kinds. The kind depends only on the program structure and
// the predicted/actual successors — never on timing state — so the sweep's
// enrichment computes it once per event for all its lanes (see classify).
const (
	// mpMisfetch: the frontend had no target (BTB/RAS miss); fetch waits
	// for the transfer to execute.
	mpMisfetch uint8 = iota + 1
	// mpTrap: wrong direction or wrong indirect target; resolved when the
	// terminator executes. The wrong-path block still went through the
	// icache (pollution).
	mpTrap
	// mpFault: right direction, wrong enlarged variant; the wrongly fetched
	// block shadow-issues until its firing fault resolves.
	mpFault
	// mpFaultNoBlock: mpFault whose predicted variant does not exist, so
	// there is nothing to shadow-issue.
	mpFaultNoBlock
)

// mispredict is a misprediction as an outcome source reports it to the
// kernel: its kind and, for an mpFault, the wrongly fetched variant and the
// icache misses of its fetch.
type mispredict struct {
	kind      uint8
	wrong     *laneBlock
	wrongMiss int
}

// classify determines how block b's misprediction of predicted (actual next
// block actual, known unequal) recovers, and which wrong-path block's fetch
// pollutes the icache (NoBlock when nothing is fetched).
func classify(prog *isa.Program, b *isa.Block, predicted, actual isa.BlockID) (uint8, isa.BlockID) {
	if predicted == isa.NoBlock {
		return mpMisfetch, isa.NoBlock
	}
	kind := mpFault
	t := b.Terminator()
	if t != nil && t.Opcode == isa.JR {
		// A mispredicted indirect jump resolves when the jump executes: an
		// ordinary misprediction, not a block squash (the jump-table target
		// is not an enlarged variant of anything).
		kind = mpTrap
	} else {
		idxP := b.SuccIndex(predicted)
		idxA := b.SuccIndex(actual)
		sameGroup := false
		if idxP >= 0 && idxA >= 0 {
			hasTrap := t != nil && (t.Opcode == isa.TRAP || t.Opcode == isa.BR) &&
				b.TakenCount > 0 && b.TakenCount < len(b.Succs)
			if hasTrap {
				sameGroup = (idxP < b.TakenCount) == (idxA < b.TakenCount)
			} else {
				sameGroup = true // single variant group
			}
		}
		if !sameGroup {
			kind = mpTrap
		}
	}
	if prog.Block(predicted) == nil {
		if kind == mpFault {
			return mpFaultNoBlock, isa.NoBlock
		}
		return kind, isa.NoBlock
	}
	return kind, predicted
}

// post is the back half of the kernel for a block issued at issue and
// scheduled as st: in-order retire, the next fetch cycle, misprediction
// recovery and the serialization stall. cycles is how long the block's fetch
// occupied the front end (zero when a trace-cache window covered it); mp is
// the block's misprediction, nil when it predicted right; last marks the
// trace's final event, which has no successor to fetch.
func (s *Sim) post(lb *laneBlock, issue int64, st schedTimes, cycles int64, mp *mispredict, last bool) {
	// Retire in order, one block per cycle.
	retire := max(st.done, s.lastRetire) + 1
	s.lastRetire = retire
	s.pushWindow(windowEntry{retire: retire, ops: len(lb.ops)})
	s.res.Ops += int64(lb.numOps)
	s.res.Blocks++
	s.res.FusedPairs += int64(int(lb.numOps) - len(lb.ops))

	depth := int64(s.cfg.FrontEndDepth)
	next := issue - depth + cycles
	if mp != nil {
		if restart := s.restart(mp, st.term, issue); restart > next {
			s.res.RecoveryStall += restart - next
			next = restart
		}
	}
	// Non-speculative fetch (BasicBlocker): a transfer that only resolves at
	// execute serializes the front end — fetch waits for the terminator and
	// refills the pipeline, on every such block. PerfectBP idealizes the
	// whole front end and lifts the serialization too.
	if lb.serialize && !last && !s.cfg.PerfectBP {
		if restart := st.term + depth; restart > next {
			s.res.FetchStallControl += restart - next
			next = restart
		}
	}
	s.nextFetch = next
}

// restart counts a misprediction and returns the cycle fetch restarts on the
// right path. Misfetches and trap mispredictions resolve with the
// terminator. A fault misprediction fetched and issued the wrong variant,
// whose firing fault detects the error: the variant shadow-issues one cycle
// after the block (later if its fetch missed the icache — squashed blocks
// cannot even detect the misprediction until they are fetched) against a copy
// of the register-ready state, charging FU slots for the discarded work, and
// the block squash adds FaultSquashPenalty: the extra cost the paper (§5)
// attributes to fault mispredictions.
func (s *Sim) restart(mp *mispredict, term, issue int64) int64 {
	depth := int64(s.cfg.FrontEndDepth)
	switch mp.kind {
	case mpMisfetch:
		s.res.Misfetches++
		return term + depth
	case mpTrap:
		s.res.TrapMispredicts++
		return term + depth
	}
	s.res.FaultMispredicts++
	resolve := term
	if mp.wrong != nil {
		scr := s.scr
		copy(scr.shadow[:laneRegsUsed], scr.regs[:laneRegsUsed])
		shadowIssue := issue + 1
		if mp.wrongMiss > 0 {
			shadowIssue += int64(s.cfg.L2Latency + mp.wrongMiss - 1)
		}
		shadow := s.laneSchedule(mp.wrong, shadowIssue, &scr.shadow, false)
		fault := shadow.firstFault
		if fault == 0 {
			// Defensive: a variant without faults cannot detect the
			// misprediction itself; fall back to its completion.
			fault = shadow.done
		}
		resolve = max(resolve, fault)
	}
	return resolve + depth + int64(s.cfg.FaultSquashPenalty)
}

// The kernel's recurrence is shift-covariant: every time it keeps is built
// from other times by max and by adding constants, and the rest of its
// state (FU busy counts, window op counts) is attached to such times, so
// two machines whose timing states differ only by a uniform cycle shift d,
// fed the same outcomes, stay exactly d apart forever and accumulate
// identical counter increments. The functions below are that argument's primitives:
// frontier copies a Sim's timing state out, shifts it and installs it into
// another Sim, and frontiersConverge decides when two Sims are a shift
// apart in everything that can still influence a future event. The sweep
// (sweep.go) uses them to fold a lane onto a sibling and to split it off
// again.

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
	win        []windowEntry // in-flight blocks, oldest first
	winOps     int
	fuBase     int64
	fuCounts   []uint8 // FU busy counts for cycles [fuBase, fuBase+len)
}

// captureFrontier copies s's timing state into f, reusing f's buffers; f
// shares nothing with the Sim afterwards.
func captureFrontier(f *frontier, s *Sim) {
	f.cycle, f.nextFetch, f.lastRetire = s.cycle, s.nextFetch, s.lastRetire
	f.winOps = s.winOps
	copy(f.regs[:], s.scr.regs[:isa.NumRegs])
	f.win = slices.Grow(f.win[:0], s.winLen)
	for k := 0; k < s.winLen; k++ {
		i := s.winHead + k
		if i >= len(s.win) {
			i -= len(s.win)
		}
		f.win = append(f.win, s.win[i])
	}
	// The whole ring, rotated to start at its base: a plain copy is cheaper
	// than trimming the free tail.
	r := &s.scr.ring
	f.fuBase = r.base
	f.fuCounts = slices.Grow(f.fuCounts[:0], len(r.counts))[:len(r.counts)]
	i := int(r.base & r.mask)
	k := copy(f.fuCounts, r.counts[i:])
	copy(f.fuCounts[k:], r.counts[:i])
}

// shift translates every cycle-valued component by d.
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

// restoreFrontier installs f into s, replacing whatever timing state s held.
func restoreFrontier(s *Sim, f *frontier) {
	s.cycle, s.nextFetch, s.lastRetire = f.cycle, f.nextFetch, f.lastRetire
	copy(s.scr.regs[:isa.NumRegs], f.regs[:])
	s.winHead, s.winLen, s.winOps = 0, len(f.win), f.winOps
	copy(s.win, f.win)
	r := &s.scr.ring
	r.base = f.fuBase
	if n := int64(len(f.fuCounts)); n > int64(len(r.counts)) {
		r.grow(f.fuBase + n - 1)
	}
	if len(f.fuCounts) < len(r.counts) {
		clear(r.counts)
	}
	i := int(f.fuBase & r.mask)
	k := copy(r.counts[i:], f.fuCounts)
	copy(r.counts, f.fuCounts[k:])
}

// addCounters adds to r the additive counters another run accumulated
// between snapshots base and cur. Everything but Cycles and the cache,
// predictor and fetch-rival statistics is additive; those are read off the
// outcome source when the run finishes. Shift-covariance makes the splice
// exact: a run that is a shift away from another accumulates the same
// increments.
func (r *Result) addCounters(cur, base *Result) {
	r.Ops += cur.Ops - base.Ops
	r.Blocks += cur.Blocks - base.Blocks
	r.TrapMispredicts += cur.TrapMispredicts - base.TrapMispredicts
	r.FaultMispredicts += cur.FaultMispredicts - base.FaultMispredicts
	r.Misfetches += cur.Misfetches - base.Misfetches
	r.FetchStallICache += cur.FetchStallICache - base.FetchStallICache
	r.FetchStallWindow += cur.FetchStallWindow - base.FetchStallWindow
	r.RecoveryStall += cur.RecoveryStall - base.RecoveryStall
	r.FetchStallControl += cur.FetchStallControl - base.FetchStallControl
	r.FusedPairs += cur.FusedPairs - base.FusedPairs
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
// nextFetch never decreases, so dead values stay dead. Equal projections
// therefore guarantee identical evolution (against identical outcomes)
// shifted by the base difference, from the next event on: by then every
// value a Result reads (lastRetire for Cycles) has been rewritten from live
// state.
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
	// FU rings: base <= nextFetch always holds, so each ring's live span
	// starts at its projection base; past the shorter span the longer ring
	// must be free.
	ca, cb := a.scr.ring.counts, b.scr.ring.counts
	spanA := a.scr.ring.base + int64(len(ca)) - ba
	spanB := b.scr.ring.base + int64(len(cb)) - bb
	ma, mb := int64(len(ca)-1), int64(len(cb)-1)
	n := min(spanA, spanB)
	for o := int64(0); o < n; o++ {
		if ca[(ba+o)&ma] != cb[(bb+o)&mb] {
			return false
		}
	}
	for o := n; o < spanA; o++ {
		if ca[(ba+o)&ma] != 0 {
			return false
		}
	}
	for o := n; o < spanB; o++ {
		if cb[(bb+o)&mb] != 0 {
			return false
		}
	}
	return true
}
