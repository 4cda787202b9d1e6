package uarch

import "bsisa/internal/isa"

// Multi-block fetch — the paper's §3 hardware-based rival family (branch
// address cache [Yeh/Marr/Patt], collapsing buffer [Conte et al.],
// multiple-block ahead predictor [Seznec et al.]): extend the predictor to
// make several predictions per cycle and interleave the icache so several
// non-consecutive lines can be fetched per cycle. The paper's two criticisms
// are modeled directly:
//
//  1. the extra alignment/merge network adds a pipeline stage, so every
//     misprediction costs one more cycle (FrontEndDepth + 1);
//  2. blocks whose lines fall in the same icache bank conflict, and all but
//     one of the conflicting fetches wait a cycle.
//
// The simulator forms fetch groups over the committed stream: consecutive
// correctly-predicted blocks share a fetch cycle up to the group's block and
// operation budget, provided their starting lines touch distinct banks.

// MultiBlockConfig configures the multi-block fetch frontend. The zero value
// disables it.
type MultiBlockConfig struct {
	// Blocks is the maximum basic blocks fetched per cycle (2-4 in the §3
	// proposals). Zero disables multi-block fetch.
	Blocks int
	// Banks is the icache interleave factor (default 8).
	Banks int
}

// Enabled reports whether multi-block fetch is configured.
func (c MultiBlockConfig) Enabled() bool { return c.Blocks > 1 }

func (c MultiBlockConfig) withDefaults() MultiBlockConfig {
	if c.Banks == 0 {
		c.Banks = 8
	}
	return c
}

// MultiBlockStats reports fetch-group behavior.
type MultiBlockStats struct {
	Groups        int64 // fetch groups formed
	Blocks        int64 // blocks fetched (all)
	BankConflicts int64 // group extensions refused by bank conflicts
}

// AvgGroupSize returns blocks per fetch group.
func (s MultiBlockStats) AvgGroupSize() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.Blocks) / float64(s.Groups)
}

type multiBlock struct {
	cfg    MultiBlockConfig
	maxOps int // a fetch group's operation budget: the issue width
	stats  MultiBlockStats

	groupCycle  int64
	groupBlocks int
	groupOps    int
	banksUsed   map[uint32]bool
	// extendable is false after a misprediction or group break: the next
	// block starts a new group.
	extendable bool
}

func newMultiBlock(cfg MultiBlockConfig, issueWidth int) *multiBlock {
	return &multiBlock{cfg: cfg.withDefaults(), maxOps: issueWidth, banksUsed: map[uint32]bool{}}
}

func (mb *multiBlock) bankOf(b *isa.Block, lineBytes int) uint32 {
	if lineBytes <= 0 {
		lineBytes = 64
	}
	return b.Addr / uint32(lineBytes) % uint32(mb.cfg.Banks)
}

// onFetch decides whether block b joins the current fetch group (returning
// the group's cycle) or starts a new group at the proposed cycle.
func (mb *multiBlock) onFetch(b *isa.Block, proposed int64, lineBytes int) (int64, bool) {
	bank := mb.bankOf(b, lineBytes)
	if mb.extendable &&
		mb.groupBlocks < mb.cfg.Blocks &&
		mb.groupOps+len(b.Ops) <= mb.maxOps {
		if mb.banksUsed[bank] {
			// Bank conflict: this block waits for the next cycle and opens
			// a fresh group there.
			mb.stats.BankConflicts++
		} else {
			mb.groupBlocks++
			mb.groupOps += len(b.Ops)
			mb.banksUsed[bank] = true
			mb.stats.Blocks++
			return mb.groupCycle, true
		}
	}
	// Start a new group.
	mb.stats.Groups++
	mb.stats.Blocks++
	mb.groupCycle = proposed
	mb.groupBlocks = 1
	mb.groupOps = len(b.Ops)
	for k := range mb.banksUsed {
		delete(mb.banksUsed, k)
	}
	mb.banksUsed[bank] = true
	mb.extendable = true
	return proposed, false
}

// breakGroup ends the current group (misprediction or icache stall).
func (mb *multiBlock) breakGroup() { mb.extendable = false }
