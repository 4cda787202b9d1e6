package bpred

import (
	"math/rand"
	"testing"

	"bsisa/internal/isa"
)

// condBlock builds a conventional conditional block at addr with successors
// taken=1, fall=2.
func condBlock(addr uint32) *isa.Block {
	b := isa.NewBlock(0)
	b.ID = 0
	b.Addr = addr
	b.Ops = []isa.Op{{Opcode: isa.BR, Rs1: 5, Target: 1}}
	b.Succs = []isa.BlockID{1, 2}
	b.TakenCount = 1
	b.RecomputeHistBits()
	return b
}

// trapBlock builds a BSA block with a variant-group successor list.
func trapBlock(addr uint32, takenG, fallG []isa.BlockID) *isa.Block {
	b := isa.NewBlock(0)
	b.ID = 100
	b.Addr = addr
	b.Ops = []isa.Op{{Opcode: isa.TRAP, Rs1: 5}}
	b.Succs = append(append([]isa.BlockID{}, takenG...), fallG...)
	b.TakenCount = len(takenG)
	b.RecomputeHistBits()
	return b
}

func TestTwoLevelLearnsAlwaysTaken(t *testing.T) {
	p := NewTwoLevel(Config{})
	b := condBlock(0x1000)
	correct := 0
	for i := 0; i < 100; i++ {
		if p.Step(b, 1, true, 0) == 1 {
			correct++
		}
	}
	// After warmup (history register fill + counter + BTB fill) it must
	// predict taken; each new history pattern trains its own counter.
	if correct < 80 {
		t.Errorf("always-taken predicted correctly %d/100", correct)
	}
}

func TestTwoLevelLearnsAlternation(t *testing.T) {
	// T,N,T,N... is perfectly predictable with history.
	p := NewTwoLevel(Config{HistoryBits: 4})
	b := condBlock(0x2000)
	correct := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		actual := isa.BlockID(2)
		if taken {
			actual = 1
		}
		if p.Step(b, actual, taken, b.SuccIndex(actual)) == actual {
			correct++
		}
	}
	if correct < 300 {
		t.Errorf("alternating pattern predicted %d/400", correct)
	}
}

func TestTwoLevelBTBMissOnFirstTaken(t *testing.T) {
	p := NewTwoLevel(Config{})
	b := condBlock(0x3000)
	// Train direction taken until the history register saturates and the
	// steady-state counter is confident; training also fills the BTB.
	for i := 0; i < 30; i++ {
		p.Step(b, 1, true, 0)
	}
	if got := p.Step(b, 1, true, 0); got != 1 {
		t.Errorf("trained predictor predicts %d, want 1", got)
	}
}

func TestTwoLevelRAS(t *testing.T) {
	p := NewTwoLevel(Config{})
	// call block: cont=7
	call := isa.NewBlock(0)
	call.Addr = 0x4000
	call.Ops = []isa.Op{{Opcode: isa.CALL, Target: 50}}
	call.Succs = []isa.BlockID{50}
	call.Cont = 7

	ret := isa.NewBlock(0)
	ret.Addr = 0x5000
	ret.Ops = []isa.Op{{Opcode: isa.RET, Rs1: isa.RegLR}}

	if got := p.Step(call, 50, true, 0); got != 50 {
		t.Errorf("call predicts %d, want callee 50", got)
	}
	if got := p.Step(ret, 7, true, -1); got != 7 {
		t.Errorf("ret predicts %d, want continuation 7", got)
	}
	// Empty RAS: no target.
	if got := p.Step(ret, 7, true, -1); got != isa.NoBlock {
		t.Errorf("ret with empty RAS predicts %d, want none", got)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := newRAS(4)
	for i := 1; i <= 6; i++ {
		r.push(isa.BlockID(i))
	}
	// Deepest two (1,2) were overwritten; pops yield 6,5,4,3 then empty.
	want := []isa.BlockID{6, 5, 4, 3}
	for _, w := range want {
		v, ok := r.pop()
		if !ok || v != w {
			t.Fatalf("pop = %d,%v want %d", v, ok, w)
		}
	}
	if _, ok := r.pop(); ok {
		t.Error("RAS should be empty")
	}
}

func TestBSALearnsVariantSelection(t *testing.T) {
	// Taken group {10,11}, fall group {20}. Actual pattern: always taken,
	// always variant 11 (within-group index 1).
	p := NewBSA(Config{})
	b := trapBlock(0x6000, []isa.BlockID{10, 11}, []isa.BlockID{20})
	correct := 0
	for i := 0; i < 200; i++ {
		if p.Step(b, 11, true, 1) == 11 {
			correct++
		}
	}
	if correct < 180 {
		t.Errorf("variant selection learned %d/200", correct)
	}
}

func TestBSAFillsBTBWithDiscoveredSuccessors(t *testing.T) {
	p := NewBSA(Config{})
	b := trapBlock(0x7000, []isa.BlockID{10, 11, 12, 13}, []isa.BlockID{20, 21})
	// First prediction allocates the entry with the two canonical targets;
	// the canonical taken outcome adds nothing beyond them.
	p.Step(b, 10, true, 0)
	e := p.btb.lookup(pcOf(b))
	if e == nil {
		t.Fatal("no BTB entry after first prediction")
	}
	if len(e.targets) != 2 || !e.has(10) || !e.has(20) {
		t.Fatalf("initial targets %v, want canonical 10 and 20", e.targets)
	}
	// Training reveals more successors.
	for _, actual := range []isa.BlockID{11, 12, 13, 21} {
		p.Step(b, actual, actual < 20, b.SuccIndex(actual))
	}
	for _, want := range []isa.BlockID{10, 11, 12, 13, 20, 21} {
		if !e.has(want) {
			t.Errorf("BTB missing discovered successor %d (%v)", want, e.targets)
		}
	}
}

func TestBSAPredictsEightWayMix(t *testing.T) {
	// Deterministic pattern over 4 successors, keyed by history: the
	// predictor should end well above the 25% chance floor.
	p := NewBSA(Config{HistoryBits: 8})
	b := trapBlock(0x8000, []isa.BlockID{10, 11}, []isa.BlockID{20, 21})
	seq := []struct {
		actual isa.BlockID
		taken  bool
	}{{10, true}, {10, true}, {21, false}, {11, true}}
	correct, total := 0, 0
	for round := 0; round < 300; round++ {
		for _, s := range seq {
			if p.Step(b, s.actual, s.taken, b.SuccIndex(s.actual)) == s.actual {
				correct++
			}
			total++
		}
	}
	if float64(correct)/float64(total) < 0.5 {
		t.Errorf("periodic 4-way pattern predicted %d/%d", correct, total)
	}
}

func TestBSASingleSuccessorNeedsNoPrediction(t *testing.T) {
	p := NewBSA(Config{})
	b := isa.NewBlock(0)
	b.Addr = 0x9000
	b.Succs = []isa.BlockID{33}
	if got := p.Step(b, 33, false, 0); got != 33 {
		t.Errorf("single-successor predicts %d", got)
	}
	if p.Stats().Lookups != 0 {
		t.Error("single successor should not count as a lookup")
	}
}

func TestBSAHistoryShiftVariable(t *testing.T) {
	p := NewBSA(Config{HistoryBits: 12})
	b2 := trapBlock(0xA000, []isa.BlockID{10}, []isa.BlockID{20}) // 1 hist bit
	b8 := trapBlock(0xB000, []isa.BlockID{10, 11, 12, 13}, []isa.BlockID{20, 21, 22, 23})
	if b2.HistBits != 1 || b8.HistBits != 3 {
		t.Fatalf("HistBits = %d, %d", b2.HistBits, b8.HistBits)
	}
	p.Step(b2, 10, true, 0)
	if p.bhr != 0 {
		t.Errorf("bhr after 1-bit taken-canonical step = %b, want 0", p.bhr)
	}
	p.Step(b8, 13, true, 3)
	if p.bhr != 0b011 {
		t.Errorf("bhr after 3-bit step = %b, want 011", p.bhr)
	}
	p.Step(b2, 20, false, 1)
	if p.bhr != 0b0111 {
		t.Errorf("bhr = %b, want 0111", p.bhr)
	}
}

func TestBTBEvictionLRU(t *testing.T) {
	b := newBTB(1, 2, 1) // one set, two ways
	e1 := b.insert(0x10)
	e1.add(1, 1)
	e2 := b.insert(0x20)
	e2.add(2, 1)
	b.lookup(0x10) // refresh 0x10
	b.insert(0x30) // evicts 0x20
	if b.lookup(0x10) == nil {
		t.Error("0x10 evicted despite recent use")
	}
	if b.lookup(0x20) != nil {
		t.Error("0x20 should have been evicted")
	}
}

func TestPredictorsAreDeterministic(t *testing.T) {
	mk := func() (Predictor, *isa.Block) {
		return NewBSA(Config{}), trapBlock(0xC000, []isa.BlockID{10, 11}, []isa.BlockID{20})
	}
	run := func() []isa.BlockID {
		p, b := mk()
		r := rand.New(rand.NewSource(42))
		var preds []isa.BlockID
		for i := 0; i < 200; i++ {
			choices := []isa.BlockID{10, 11, 20}
			a := choices[r.Intn(3)]
			preds = append(preds, p.Step(b, a, a < 20, b.SuccIndex(a)))
		}
		return preds
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("nondeterministic prediction at %d", i)
		}
	}
}
