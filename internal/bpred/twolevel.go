package bpred

import "bsisa/internal/isa"

// btb is a tagged, set-associative branch target buffer. Conventional
// entries hold one target; BSA entries hold up to eight successor slots.
type btb struct {
	sets    int
	ways    int
	slots   int
	entries []btbEntry
	clock   uint64
}

type btbEntry struct {
	valid   bool
	tag     uint32
	lastUse uint64
	targets []isa.BlockID
}

func newBTB(sets, ways, slots int) *btb {
	return &btb{sets: sets, ways: ways, slots: slots, entries: make([]btbEntry, sets*ways)}
}

func (t *btb) index(pc uint32) (int, uint32) {
	set := int(pc) & (t.sets - 1)
	return set * t.ways, pc / uint32(t.sets)
}

// lookup returns the entry for pc, or nil.
func (t *btb) lookup(pc uint32) *btbEntry {
	base, tag := t.index(pc)
	t.clock++
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == tag {
			e.lastUse = t.clock
			return e
		}
	}
	return nil
}

// insert returns the (possibly recycled) entry for pc, allocating on miss.
func (t *btb) insert(pc uint32) *btbEntry {
	if e := t.lookup(pc); e != nil {
		return e
	}
	base, tag := t.index(pc)
	victim := base
	for i := 1; i < t.ways; i++ {
		e := &t.entries[base+i]
		if !e.valid {
			victim = base + i
			break
		}
		if e.lastUse < t.entries[victim].lastUse {
			victim = base + i
		}
	}
	e := &t.entries[victim]
	e.valid = true
	e.tag = tag
	e.lastUse = t.clock
	e.targets = e.targets[:0]
	return e
}

func (e *btbEntry) has(id isa.BlockID) bool {
	for _, t := range e.targets {
		if t == id {
			return true
		}
	}
	return false
}

func (e *btbEntry) add(id isa.BlockID, max int) {
	if e.has(id) {
		return
	}
	if len(e.targets) < max {
		e.targets = append(e.targets, id)
		return
	}
	// Entry full (should not happen for BSA entries sized at MaxSuccs);
	// replace the oldest slot.
	copy(e.targets, e.targets[1:])
	e.targets[len(e.targets)-1] = id
}

// TwoLevel is the conventional two-level adaptive predictor (gshare
// organization): a global branch history register XOR-indexed with the
// branch PC into a table of two-bit counters, plus a BTB for taken targets
// and a return address stack.
type TwoLevel struct {
	cfg   Config
	bhr   uint32
	pht   []uint8
	btb   *btb
	ras   *ras
	stats Stats
}

// NewTwoLevel builds the conventional predictor.
func NewTwoLevel(cfg Config) *TwoLevel {
	cfg = cfg.withDefaults()
	return &TwoLevel{
		cfg: cfg,
		pht: make([]uint8, cfg.PHTEntries),
		btb: newBTB(cfg.BTBSets, cfg.BTBWays, 1),
		ras: newRAS(cfg.RASDepth),
	}
}

func (p *TwoLevel) phtIndex(pc, bhr uint32) int {
	mask := uint32(p.cfg.PHTEntries - 1)
	hist := bhr & (1<<uint(p.cfg.HistoryBits) - 1)
	return int((pc ^ hist) & mask)
}

// shiftConvTerm advances a conventional global history register past a
// block whose terminator is t: one taken bit per conditional branch, nothing
// otherwise. It is the single definition of the BHR evolution, shared by
// Step and the sweep Bank: the evolution depends only on the committed
// outcome, so every history length sees the same register and HistoryBits
// merely masks it at indexing time.
func shiftConvTerm(bhr uint32, t *isa.Op, taken bool) uint32 {
	if t != nil && t.Opcode == isa.BR {
		bhr <<= 1
		if taken {
			bhr |= 1
		}
	}
	return bhr
}

// Step implements Predictor.
func (p *TwoLevel) Step(b *isa.Block, actual isa.BlockID, taken bool, succIdx int) isa.BlockID {
	t := b.Terminator()
	pred := p.stepTerm(b, t, actual, taken, p.bhr)
	p.bhr = shiftConvTerm(p.bhr, t, taken)
	return pred
}

// stepTerm predicts the successor of b against history register bhr, then
// trains the tables on the committed outcome, with the terminator t already
// resolved (the Bank resolves it once per event for every lane). It does not
// advance the register: the caller shifts it once via shiftConvTerm, whether
// it owns one register or shares it across a Bank. The BTB is probed before
// it is trained: its clock drives LRU replacement, so the probe order
// decides victim choice.
func (p *TwoLevel) stepTerm(b *isa.Block, t *isa.Op, actual isa.BlockID, taken bool, bhr uint32) isa.BlockID {
	if t == nil {
		return b.Succs[0]
	}
	switch t.Opcode {
	case isa.JMP:
		return b.Succs[0]
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
		pred := isa.NoBlock
		if e := p.btb.lookup(pcOf(b)); e != nil && len(e.targets) > 0 {
			pred = e.targets[0]
		} else {
			p.stats.BTBMisses++
		}
		p.btb.insert(pcOf(b)).add(actual, 1)
		return pred
	case isa.HALT:
		return isa.NoBlock
	case isa.BR:
		p.stats.Lookups++
		idx := p.phtIndex(pcOf(b), bhr)
		ctr := p.pht[idx]
		dir := taken2(ctr)
		pred := isa.NoBlock
		if dir {
			// Predicted taken: the target must be in the BTB to redirect
			// fetch.
			if e := p.btb.lookup(pcOf(b)); e != nil && e.has(b.Succs[0]) {
				pred = b.Succs[0]
			} else {
				p.stats.BTBMisses++
			}
		} else {
			pred = b.Succs[b.TakenCount]
		}
		if dir == taken {
			// Target correctness is accounted by the caller comparing
			// block IDs; count direction hits here.
			p.stats.Correct++
		}
		p.pht[idx] = bump(ctr, taken)
		if taken {
			p.btb.insert(pcOf(b)).add(actual, 1)
		}
		return pred
	}
	return isa.NoBlock
}

// Stats implements Predictor.
func (p *TwoLevel) Stats() Stats { return p.stats }
