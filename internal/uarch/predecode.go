package uarch

import (
	"bsisa/internal/isa"
)

// Predecoded is a reusable predecode of a program's blocks: the flattened
// per-block operation tables every timing engine runs on, with the backend's
// fetch policy (fusion, serialization) already applied. The table depends
// only on the program and the (defaulted) issue width — never on the trace or
// any cache/predictor knob — so a service can build it once per program and
// hand it to every sweep over that program. A Predecoded is immutable after
// construction and safe for concurrent use by any number of engines.
type Predecoded struct {
	prog       *isa.Program
	issueWidth int
	lp         []laneBlock
	// noMiss is an all-zero load-outcome table, longer than any block's op
	// table, for shadow (wrong-path) scheduling passes: wrong-path loads
	// assume L1 hits.
	noMiss []uint8
}

// EffectiveIssueWidth resolves the issue width a configuration will actually
// run with (the paper's 16-wide fetch when the knob is zero) — the value
// Predecode keys its tables on.
func (c Config) EffectiveIssueWidth() int {
	return c.withDefaults().IssueWidth
}

// Predecode flattens prog's blocks once for the timing engines.
// issueWidth <= 0 takes the paper's default, matching Config.withDefaults.
func Predecode(prog *isa.Program, issueWidth int) *Predecoded {
	if issueWidth <= 0 {
		issueWidth = Config{}.EffectiveIssueWidth()
	}
	return flatten(prog, issueWidth)
}

// IssueWidth reports the issue width the tables were flattened for.
func (p *Predecoded) IssueWidth() int { return p.issueWidth }

// Footprint returns the approximate in-memory size of the tables in bytes,
// for cache accounting.
func (p *Predecoded) Footprint() int64 {
	n := int64(len(p.lp))*48 + int64(len(p.noMiss))
	for i := range p.lp {
		n += int64(len(p.lp[i].ops)) * 8
	}
	return n
}
