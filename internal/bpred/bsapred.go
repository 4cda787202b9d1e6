package bpred

import "bsisa/internal/isa"

// BSA is the paper's modified Two-Level Adaptive predictor for
// block-structured ISAs (§4.3). Three modifications over TwoLevel:
//
//  1. BTB entries store up to MaxTargets successor targets. On first
//     encounter the trap's two explicitly specified targets are stored; the
//     remaining slots fill in as fault mispredictions reveal new successors.
//  2. PHT entries hold three two-bit counters: one predicting the trap
//     direction and two predicting the fault-level variant selection,
//     together a three-bit prediction selecting among up to eight
//     successors.
//  3. The history register shifts in the minimum number of bits that
//     uniquely identifies the prediction — the block's HistBits annotation
//     from its trap operation — instead of always one bit.
type BSA struct {
	cfg   Config
	bhr   uint32
	pht   []bsaCounters
	btb   *btb
	ras   *ras
	stats Stats
}

// MaxTargets is the BTB successor-slot count (the paper's eight).
const MaxTargets = 8

type bsaCounters struct {
	trap uint8 // predicts trap direction
	f1   uint8 // predicts high variant-selection bit
	f2   uint8 // predicts low variant-selection bit
}

// NewBSA builds the block-structured predictor. Its tables are sized to the
// same storage budget as the conventional predictor: PHT entries hold three
// two-bit counters instead of one (a quarter of the entries), and BTB
// entries hold eight targets instead of one (an eighth of the sets). The
// paper's §4.3 notes the successor-count restriction exists precisely to
// keep the predictor's size down.
func NewBSA(cfg Config) *BSA {
	cfg = cfg.withDefaults()
	entries, sets := bsaTables(cfg)
	return &BSA{
		cfg: cfg,
		pht: make([]bsaCounters, entries),
		btb: newBTB(sets, cfg.BTBWays, MaxTargets),
		ras: newRAS(cfg.RASDepth),
	}
}

// bsaTables returns the PHT entries and BTB sets NewBSA allocates for the
// defaulted cfg: a quarter of its entries, at least 1,024, and an eighth of
// its sets, at least 32.
func bsaTables(cfg Config) (entries, sets int) {
	return max(cfg.PHTEntries/4, 1024), max(cfg.BTBSets/8, 32)
}

func (p *BSA) phtIndex(pc, bhr uint32) int {
	mask := uint32(len(p.pht) - 1)
	hist := bhr & (1<<uint(p.cfg.HistoryBits) - 1)
	return int((pc ^ hist) & mask)
}

// shiftBSATerm advances a block-structured global history register past
// block b, whose terminator is t: the variable HistBits-wide successor index
// for a real multi-way choice, nothing otherwise. Like shiftConvTerm it is
// the single definition of the BHR evolution, shared by Step and the sweep
// Bank: the evolution depends only on the committed outcome, never on
// HistoryBits, which merely masks the register at indexing time.
func shiftBSATerm(bhr uint32, b *isa.Block, t *isa.Op, succIdx int) uint32 {
	if t != nil {
		switch t.Opcode {
		case isa.CALL, isa.RET, isa.HALT, isa.JR:
			return bhr
		}
	}
	if len(b.Succs) <= 1 || b.HistBits <= 0 {
		return bhr
	}
	v := uint32(0)
	if succIdx >= 0 {
		v = uint32(succIdx)
	}
	return bhr<<uint(b.HistBits) | (v & (1<<uint(b.HistBits) - 1))
}

// groups splits a block's successor list into the trap-taken and
// trap-not-taken variant groups, given the block's already-resolved
// terminator. Blocks without a trap have a single group.
func groups(b *isa.Block, t *isa.Op) (takenG, fallG []isa.BlockID, hasTrap bool) {
	if t != nil && t.Opcode == isa.TRAP && b.TakenCount > 0 && b.TakenCount < len(b.Succs) {
		return b.Succs[:b.TakenCount], b.Succs[b.TakenCount:], true
	}
	return b.Succs, nil, false
}

// selectIn picks a variant within a group using the fault counters.
func selectIn(group []isa.BlockID, c *bsaCounters) isa.BlockID {
	sel := 0
	if taken2(c.f1) {
		sel |= 2
	}
	if taken2(c.f2) {
		sel |= 1
	}
	if sel >= len(group) {
		// The counters name a variant that does not exist in this group.
		// Fall back to the canonical variant (index 0), the trap's explicit
		// target. Folding with a modulo instead would alias the out-of-range
		// counter states unevenly onto non-canonical variants whenever the
		// group size is not a power of two, biasing selection away from the
		// canonical variant the training loop saturates toward.
		sel = 0
	}
	return group[sel]
}

// Step implements Predictor.
func (p *BSA) Step(b *isa.Block, actual isa.BlockID, taken bool, succIdx int) isa.BlockID {
	t := b.Terminator()
	pred := p.stepTerm(b, t, actual, taken, p.bhr)
	p.bhr = shiftBSATerm(p.bhr, b, t, succIdx)
	return pred
}

// stepTerm predicts the successor of b against history register bhr, then
// trains the tables on the committed outcome, with the terminator t already
// resolved (the Bank resolves it once per event for every lane). It does not
// advance the register: the caller shifts it once via shiftBSATerm, whether
// it owns one register or shares it across a Bank. The BTB is probed before
// it is trained: its clock drives LRU replacement, so the probe order
// decides victim choice.
func (p *BSA) stepTerm(b *isa.Block, t *isa.Op, actual isa.BlockID, taken bool, bhr uint32) isa.BlockID {
	if t != nil {
		switch t.Opcode {
		case isa.CALL:
			p.ras.push(b.Cont)
			return b.Succs[0]
		case isa.RET:
			p.stats.RASReturns++
			if v, ok := p.ras.pop(); ok {
				return v
			}
			return isa.NoBlock
		case isa.JR:
			// An indirect jump is a real multi-way prediction (the BTB entry
			// holds up to eight discovered targets), so the probe counts as a
			// lookup whether it hits or not; otherwise BTBMisses accumulate
			// against a Lookups denominator that never saw the probes and the
			// indirect-jump hit/miss rates are skewed.
			p.stats.Lookups++
			pred := isa.NoBlock
			if e := p.btb.lookup(pcOf(b)); e != nil && len(e.targets) > 0 {
				pred = e.targets[0]
			} else {
				p.stats.BTBMisses++
			}
			p.btb.insert(pcOf(b)).add(actual, MaxTargets)
			return pred
		case isa.HALT:
			return isa.NoBlock
		}
	}
	if len(b.Succs) == 0 {
		return isa.NoBlock
	}
	if len(b.Succs) == 1 {
		// Single successor: the block header names it; no prediction, and
		// nothing to train.
		return b.Succs[0]
	}

	pc := pcOf(b)
	p.stats.Lookups++
	e := p.btb.lookup(pc)
	if e == nil {
		// First encounter: allocate and store the trap's two explicit
		// targets (the canonical variant of each group).
		e = p.btb.insert(pc)
		tg, fg, hasTrap := groups(b, t)
		e.add(tg[0], MaxTargets)
		if hasTrap {
			e.add(fg[0], MaxTargets)
		}
	}
	idx := p.phtIndex(pc, bhr)
	c := &p.pht[idx]
	tg, fg, hasTrap := groups(b, t)
	group := tg
	if hasTrap && !taken2(c.trap) {
		group = fg
	}
	want := selectIn(group, c)
	pred := isa.NoBlock
	if e.has(want) {
		pred = want
	} else {
		// The selected variant's target is not yet in the BTB: fall back to
		// a known target within the group, preferring the canonical one.
		// With none on the predicted side, any stored target can at least
		// keep fetch moving (its fault will redirect if wrong).
		for _, g := range group {
			if e.has(g) {
				pred = g
				break
			}
		}
		if pred == isa.NoBlock {
			if len(e.targets) > 0 {
				pred = e.targets[0]
			} else {
				p.stats.BTBMisses++
			}
		}
	}

	// Train: reveal the actual successor to the BTB (fault mispredictions
	// fill the remaining slots, per the paper), then move the trap and
	// variant-selection counters toward the actual outcome. Every read of c
	// above happens before these bumps.
	p.btb.insert(pc).add(actual, MaxTargets)
	ugroup := tg
	if hasTrap {
		c.trap = bump(c.trap, taken)
		if !taken {
			ugroup = fg
		}
	}
	within := 0
	for i, g := range ugroup {
		if g == actual {
			within = i
			break
		}
	}
	if len(ugroup) > 1 {
		c.f1 = bump(c.f1, within&2 != 0)
		c.f2 = bump(c.f2, within&1 != 0)
	}
	return pred
}

// Stats implements Predictor.
func (p *BSA) Stats() Stats { return p.stats }
