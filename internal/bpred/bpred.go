// Package bpred implements the branch predictors of the study:
//
//   - TwoLevel: a two-level adaptive predictor (Yeh & Patt) in its
//     global-history gshare organization with a tagged set-associative BTB
//     and a return address stack, used by the conventional-ISA processor;
//   - BSA: the paper's §4.3 modification for block-structured ISAs — BTB
//     entries hold up to eight successor targets (the trap's two explicit
//     targets stored on first encounter, the rest filled in as fault
//     mispredictions reveal them), PHT entries hold three two-bit counters
//     producing a three-bit successor selection, and the branch history
//     register is shifted by the variable number of history bits the trap
//     operation specifies (the block's HistBits).
//
// Both predictors expose one operation to the timing model, Step: given a
// committed block and its architectural outcome, predict the block's
// successor from the current state, then train on the outcome and advance
// the history register. Prediction state depends only on the committed
// stream, never on timing, so nothing is lost by taking both halves in one
// call; the sweep's Bank runs the same per-lane step over a shared history
// register.
package bpred

import (
	"errors"
	"fmt"
	"unsafe"

	"bsisa/internal/isa"
)

// Predictor is the frontend-prediction interface the timing model consumes.
type Predictor interface {
	// Step consumes one committed block with a real successor. It returns
	// the block the frontend would have fetched after b, or isa.NoBlock
	// when it had no usable target (treated as a misfetch), then trains on
	// the architectural outcome: the committed successor, the trap/branch
	// direction, and the successor's index in b.Succs (-1 for
	// return/indirect transfers). The prediction never depends on the
	// outcome it is trained with.
	Step(b *isa.Block, actual isa.BlockID, taken bool, succIdx int) isa.BlockID
	// Stats reports prediction traffic.
	Stats() Stats
}

// Stats counts predictor traffic. Misprediction *consequences* are measured
// by the timing model; these are raw hit/miss counts.
type Stats struct {
	Lookups    int64 // blocks with a real multi-way choice
	Correct    int64
	BTBMisses  int64 // predictions that could not name a fetch target
	RASReturns int64
}

// Config sizes the predictor tables. Zero fields take scaled defaults chosen
// to sit in the same table-pressure regime as the paper's configuration at
// this reproduction's workload scale.
type Config struct {
	HistoryBits int // global history length (default 8)
	PHTEntries  int // pattern history table entries, power of two (default 32768)
	BTBSets     int // BTB sets, power of two (default 512)
	BTBWays     int // BTB associativity (default 4)
	RASDepth    int // return address stack depth (default 16)
}

// ErrBadConfig is wrapped by every Config.Validate failure, so callers can
// classify predictor-configuration errors with errors.Is without matching
// message text — the same contract as uarch.ErrBadConfig and the cache
// package's validation.
var ErrBadConfig = errors.New("bpred: invalid configuration")

// bhrWidth is the branch history register width in bits (the BHR is a
// uint32). HistoryBits beyond it cannot contribute to the PHT index.
const bhrWidth = 32

// Validate rejects table geometries the predictors would silently
// mis-simulate: PHT entry counts and BTB set counts that are not powers of
// two (both are index-masked), non-positive BTB associativity or RAS depth,
// and history lengths outside the BHR's width. Defaults are applied first,
// so the zero Config validates.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.HistoryBits < 0 || d.HistoryBits > bhrWidth:
		return fmt.Errorf("%w: history of %d bits outside the %d-bit BHR", ErrBadConfig, d.HistoryBits, bhrWidth)
	case d.PHTEntries < 1 || d.PHTEntries&(d.PHTEntries-1) != 0:
		return fmt.Errorf("%w: PHT entries %d is not a positive power of two", ErrBadConfig, d.PHTEntries)
	case d.BTBSets < 1 || d.BTBSets&(d.BTBSets-1) != 0:
		return fmt.Errorf("%w: BTB sets %d is not a positive power of two", ErrBadConfig, d.BTBSets)
	case d.BTBWays < 1:
		return fmt.Errorf("%w: BTB ways %d < 1", ErrBadConfig, d.BTBWays)
	case d.RASDepth < 1:
		return fmt.Errorf("%w: RAS depth %d < 1", ErrBadConfig, d.RASDepth)
	}
	return nil
}

// Normalize returns the configuration with defaults applied: the table
// sizes the predictors actually allocate.
func (c Config) Normalize() Config { return c.withDefaults() }

// TableBytes returns the bytes the predictor built from c holds in its
// tables once its BTB has filled: the PHT, the BTB with every entry's target
// slots, and the RAS. multiSuccessor selects the BSA predictor, as
// NewBank's flag does.
func (c Config) TableBytes(multiSuccessor bool) int {
	c = c.withDefaults()
	pht, phtEntry := c.PHTEntries, int(unsafe.Sizeof(uint8(0)))
	sets, slots := c.BTBSets, 1
	if multiSuccessor {
		pht, sets = bsaTables(c)
		phtEntry, slots = int(unsafe.Sizeof(bsaCounters{})), MaxTargets
	}
	id := int(unsafe.Sizeof(isa.BlockID(0)))
	btbEntry := int(unsafe.Sizeof(btbEntry{})) + slots*id
	return pht*phtEntry + sets*c.BTBWays*btbEntry + c.RASDepth*id
}

func (c Config) withDefaults() Config {
	if c.HistoryBits == 0 {
		c.HistoryBits = 8
	}
	if c.PHTEntries == 0 {
		c.PHTEntries = 32768
	}
	if c.BTBSets == 0 {
		c.BTBSets = 512
	}
	if c.BTBWays == 0 {
		c.BTBWays = 4
	}
	if c.RASDepth == 0 {
		c.RASDepth = 16
	}
	return c
}

// ras is a circular return address stack.
type ras struct {
	stack []isa.BlockID
	top   int
	n     int
}

func newRAS(depth int) *ras {
	return &ras{stack: make([]isa.BlockID, depth)}
}

func (r *ras) push(v isa.BlockID) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = v
	if r.n < len(r.stack) {
		r.n++
	}
}

func (r *ras) pop() (isa.BlockID, bool) {
	if r.n == 0 {
		return isa.NoBlock, false
	}
	v := r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.n--
	return v, true
}

// counter update helpers for 2-bit saturating counters.
func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func taken2(c uint8) bool { return c >= 2 }

// pcOf hashes a block to a predictor PC. Blocks are addressed by their
// layout address.
func pcOf(b *isa.Block) uint32 { return b.Addr >> 2 }
