package uarch

import (
	"testing"

	"bsisa/internal/isa"
)

// TestFrontiersConvergeOnLaneState pins lane folding's convergence projection
// over the kernel's lane state: frontiers that differ by a uniform shift
// converge, a live register or FU count that differs does not, the sink
// slot (written, never read) is ignored, and a captured frontier restored
// into a fresh Sim converges with its source.
func TestFrontiersConvergeOnLaneState(t *testing.T) {
	prog := policyProgram(t, 7500, isa.Conventional)
	mk := func() *Sim {
		s, err := New(prog, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.release)
		return s
	}
	a, b := mk(), mk()
	if !frontiersConverge(a, b) {
		t.Fatal("two empty frontiers do not converge")
	}
	a.nextFetch, a.lastRetire, a.scr.regs[5] = 100, 103, 130
	b.nextFetch, b.lastRetire, b.scr.regs[5] = 40, 43, 70
	a.scr.ring.advance(100)
	b.scr.ring.advance(40)
	a.scr.ring.counts[102&a.scr.ring.mask] = 3
	b.scr.ring.counts[42&b.scr.ring.mask] = 3
	if !frontiersConverge(a, b) {
		t.Fatal("frontiers a uniform shift apart do not converge")
	}
	a.scr.regs[laneRegSink] = 999
	if !frontiersConverge(a, b) {
		t.Fatal("the sink slot, which no op reads, blocked convergence")
	}
	b.scr.regs[5] = 71
	if frontiersConverge(a, b) {
		t.Fatal("frontiers converge with a live register a cycle apart")
	}
	b.scr.regs[5] = 70
	b.scr.ring.counts[42&b.scr.ring.mask] = 2
	if frontiersConverge(a, b) {
		t.Fatal("frontiers converge with different FU occupancy")
	}
	c := mk()
	var f frontier
	captureFrontier(&f, a)
	restoreFrontier(c, &f)
	if !frontiersConverge(a, c) || c.nextFetch != a.nextFetch {
		t.Fatal("a restored frontier does not match its source")
	}
}
