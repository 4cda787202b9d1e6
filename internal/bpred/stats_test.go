package bpred

import (
	"testing"

	"bsisa/internal/isa"
)

// jrBlock builds a BSA block ending in an indirect jump.
func jrBlock(addr uint32) *isa.Block {
	b := isa.NewBlock(0)
	b.ID = 50
	b.Addr = addr
	b.Ops = []isa.Op{{Opcode: isa.JR, Rs1: 5}}
	b.Succs = []isa.BlockID{1, 2, 3}
	b.TakenCount = 0
	b.RecomputeHistBits()
	return b
}

// TestBSAJRStatsSymmetry is the regression test for the JR accounting
// asymmetry: every JR probe must count as a lookup, hit or miss, so that
// BTBMisses never exceeds Lookups and indirect-jump hit rates are
// well-defined.
func TestBSAJRStatsSymmetry(t *testing.T) {
	p := NewBSA(Config{})
	b := jrBlock(0x4000)

	// Cold probe: no BTB entry yet — one lookup, one miss. The step trains
	// the target.
	if got := p.Step(b, 2, false, -1); got != isa.NoBlock {
		t.Fatalf("cold JR predict = %d, want NoBlock", got)
	}
	if s := p.Stats(); s.Lookups != 1 || s.BTBMisses != 1 {
		t.Fatalf("after cold probe: Lookups=%d BTBMisses=%d, want 1/1", s.Lookups, s.BTBMisses)
	}

	// Probe again: one more lookup, no new miss.
	if got := p.Step(b, 2, false, -1); got != 2 {
		t.Fatalf("warm JR predict = %d, want 2", got)
	}
	if s := p.Stats(); s.Lookups != 2 || s.BTBMisses != 1 {
		t.Fatalf("after warm probe: Lookups=%d BTBMisses=%d, want 2/1", s.Lookups, s.BTBMisses)
	}

	// The miss count must never outrun the lookup count over a mixed
	// hit/miss sequence.
	for i := 0; i < 100; i++ {
		p.Step(b, isa.BlockID(1+i%3), false, -1)
	}
	if s := p.Stats(); s.BTBMisses > s.Lookups {
		t.Fatalf("BTBMisses %d > Lookups %d", s.BTBMisses, s.Lookups)
	}
}

// TestSelectInClampsToCanonical is the table-driven regression test for the
// out-of-range variant-selection fold: counter states naming a nonexistent
// variant must fall back to the canonical variant (index 0), never alias
// onto an arbitrary sibling via a modulo.
func TestSelectInClampsToCanonical(t *testing.T) {
	group8 := []isa.BlockID{10, 11, 12, 13, 14, 15, 16, 17}
	cases := []struct {
		name  string
		size  int
		f1    uint8 // high selection bit counter
		f2    uint8 // low selection bit counter
		want  isa.BlockID
		inSel int // decoded selection before range handling
	}{
		{"size3/sel0", 3, 0, 0, 10, 0},
		{"size3/sel1", 3, 0, 3, 11, 1},
		{"size3/sel2", 3, 3, 0, 12, 2},
		// sel 3 with 3 variants: modulo would alias onto variant 0 too, but
		// by accident; the clamp makes the fall-back explicit.
		{"size3/sel3", 3, 3, 3, 10, 3},
		// sel 2/3 with 2 variants: the old modulo sent sel 3 to variant 1,
		// biasing selection away from the canonical variant.
		{"size2/sel2", 2, 3, 0, 10, 2},
		{"size2/sel3", 2, 3, 3, 10, 3},
		{"size1/sel3", 1, 3, 3, 10, 3},
		{"size4/sel3", 4, 3, 3, 13, 3},
	}
	for _, tc := range cases {
		c := &bsaCounters{f1: tc.f1, f2: tc.f2}
		got := selectIn(group8[:tc.size], c)
		if got != tc.want {
			t.Errorf("%s: selectIn = %d, want %d", tc.name, got, tc.want)
		}
	}
}
