package bpred

import "bsisa/internal/isa"

// Bank steps a whole grid of predictor variants of one kind in lockstep over
// a single committed block stream. It is the predictor half of the unified
// sweep engine (uarch.Sweep): predictor state depends only on the
// committed stream — never on timing — so one walk of the trace can train
// every variant and emit each lane's prediction for every control event.
//
// The bank shares the branch history register across lanes: the BHR's
// evolution is fixed by the committed outcomes (shiftConvTerm/shiftBSATerm),
// and a lane's HistoryBits only masks the register at PHT-indexing time, so
// one shift per event serves every history length. Per-lane state (PHT,
// BTB, RAS, stats) lives in ordinary TwoLevel/BSA predictors driven through
// stepTerm, the same code their own Step runs against their private
// register, which keeps the bank's per-event work allocation-free once the
// BTBs warm up (TestBankStepAllocs pins this).
type Bank struct {
	bhr  uint32
	conv []*TwoLevel // exactly one of conv/bsa is populated
	bsa  []*BSA
}

// NewBank builds one predictor lane per configuration: the paper's
// multi-successor BSA predictor when multiSuccessor is set, the two-level
// predictor otherwise. The caller picks the family from the backend's fetch
// policy, as uarch.New does.
func NewBank(multiSuccessor bool, cfgs []Config) *Bank {
	bk := &Bank{}
	if multiSuccessor {
		bk.bsa = make([]*BSA, len(cfgs))
		for i, cfg := range cfgs {
			bk.bsa[i] = NewBSA(cfg)
		}
		return bk
	}
	bk.conv = make([]*TwoLevel, len(cfgs))
	for i, cfg := range cfgs {
		bk.conv[i] = NewTwoLevel(cfg)
	}
	return bk
}

// Len returns the number of lanes.
func (bk *Bank) Len() int {
	if bk.bsa != nil {
		return len(bk.bsa)
	}
	return len(bk.conv)
}

// Step consumes one control event: every lane predicts the successor of b
// (out[i] receives lane i's prediction; out must hold Len() entries), every
// lane trains on the architectural outcome, and the shared history register
// advances once. Call it exactly where a live simulation calls
// Predictor.Step — for each committed block with a real successor.
//
// Each lane runs stepTerm against the shared register. Lanes never touch
// each other's tables, and the shared register is read-only until the
// single shift below, so lane i's training cannot influence lane j's
// prediction, and every lane sees what its standalone Step would. Events
// that no lane's tables react to — a fallthrough or unconditional jump for
// the conventional predictor, the same with a single successor for the BSA
// one — short-circuit to the known successor without entering the lanes at
// all (no stats change, and the history shift is a no-op for those
// terminators).
func (bk *Bank) Step(b *isa.Block, actual isa.BlockID, taken bool, succIdx int, out []isa.BlockID) {
	// The terminator is resolved once here and passed down: every lane's
	// predict and update needs it, and it is a pure function of the block.
	t := b.Terminator()
	if bk.bsa != nil {
		if (t == nil || t.Opcode == isa.JMP) && len(b.Succs) == 1 {
			s := b.Succs[0]
			for i := range out[:len(bk.bsa)] {
				out[i] = s
			}
			return
		}
		for i, p := range bk.bsa {
			out[i] = p.stepTerm(b, t, actual, taken, bk.bhr)
		}
		bk.bhr = shiftBSATerm(bk.bhr, b, t, succIdx)
		return
	}
	if t == nil || t.Opcode == isa.JMP {
		s := b.Succs[0]
		for i := range out[:len(bk.conv)] {
			out[i] = s
		}
		return
	}
	for i, p := range bk.conv {
		out[i] = p.stepTerm(b, t, actual, taken, bk.bhr)
	}
	bk.bhr = shiftConvTerm(bk.bhr, t, taken)
}

// LaneStats reports lane i's prediction traffic.
func (bk *Bank) LaneStats(i int) Stats {
	if bk.bsa != nil {
		return bk.bsa[i].Stats()
	}
	return bk.conv[i].Stats()
}
