package ir

import (
	"strings"
	"testing"
)

// buildDiamond builds:
//
//	b0: v0 = const 1; br v0 -> b1, b2
//	b1: v1 = const 10; jmp b3
//	b2: v2 = const 20; jmp b3
//	b3: ret
func buildDiamond() *Func {
	f := &Func{Name: "diamond"}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	v0, v1, v2 := f.NewReg(), f.NewReg(), f.NewReg()
	b0.Instrs = []Instr{
		{Op: Const, Dst: v0, Imm: 1, A: NoReg, B: NoReg},
		{Op: Br, A: v0, Dst: NoReg, B: NoReg},
	}
	b0.Succs = []*Block{b1, b2}
	b1.Instrs = []Instr{
		{Op: Const, Dst: v1, Imm: 10, A: NoReg, B: NoReg},
		{Op: Jmp, Dst: NoReg, A: NoReg, B: NoReg},
	}
	b1.Succs = []*Block{b3}
	b2.Instrs = []Instr{
		{Op: Const, Dst: v2, Imm: 20, A: NoReg, B: NoReg},
		{Op: Jmp, Dst: NoReg, A: NoReg, B: NoReg},
	}
	b2.Succs = []*Block{b3}
	b3.Instrs = []Instr{{Op: Ret, A: NoReg, Dst: NoReg, B: NoReg}}
	return f
}

func TestLivenessAcrossBlocks(t *testing.T) {
	// b0: v0 = const 7; jmp b1
	// b1: v1 = add v0, v0; ret v1
	f := &Func{Name: "live"}
	b0, b1 := f.NewBlock(), f.NewBlock()
	f.Entry = b0
	v0, v1 := f.NewReg(), f.NewReg()
	b0.Instrs = []Instr{
		{Op: Const, Dst: v0, Imm: 7, A: NoReg, B: NoReg},
		{Op: Jmp, Dst: NoReg, A: NoReg, B: NoReg},
	}
	b0.Succs = []*Block{b1}
	b1.Instrs = []Instr{
		{Op: Add, Dst: v1, A: v0, B: v0},
		{Op: Ret, A: v1, Dst: NoReg, B: NoReg},
	}

	ls := f.Liveness()
	if !ls.Out(b0).Has(v0) {
		t.Error("v0 should be live out of b0")
	}
	if !ls.In(b1).Has(v0) {
		t.Error("v0 should be live into b1")
	}
	if ls.In(b0).Has(v0) {
		t.Error("v0 should not be live into b0 (defined there)")
	}
	if ls.Out(b1).Has(v1) {
		t.Error("v1 should not be live out of b1")
	}
}

func TestLivenessLoop(t *testing.T) {
	// v live around the loop: defined before, used in body.
	// b0: v = const 3; jmp b1
	// b1: c = const 1; br c -> b2, b3
	// b2: u = add v, v; jmp b1
	// b3: ret v
	f := &Func{Name: "liveloop"}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	v, c, u := f.NewReg(), f.NewReg(), f.NewReg()
	b0.Instrs = []Instr{{Op: Const, Dst: v, Imm: 3, A: NoReg, B: NoReg}, {Op: Jmp, A: NoReg, Dst: NoReg, B: NoReg}}
	b0.Succs = []*Block{b1}
	b1.Instrs = []Instr{{Op: Const, Dst: c, Imm: 1, A: NoReg, B: NoReg}, {Op: Br, A: c, Dst: NoReg, B: NoReg}}
	b1.Succs = []*Block{b2, b3}
	b2.Instrs = []Instr{{Op: Add, Dst: u, A: v, B: v}, {Op: Jmp, A: NoReg, Dst: NoReg, B: NoReg}}
	b2.Succs = []*Block{b1}
	b3.Instrs = []Instr{{Op: Ret, A: v, Dst: NoReg, B: NoReg}}

	ls := f.Liveness()
	for _, b := range []*Block{b1, b2} {
		if !ls.In(b).Has(v) {
			t.Errorf("v should be live into b%d", b.ID)
		}
	}
	if !ls.Out(b2).Has(v) {
		t.Error("v should be live out of the latch")
	}
	_ = u
}

func TestInstrUsesDef(t *testing.T) {
	cases := []struct {
		in    Instr
		uses  int
		hasDe bool
	}{
		{Instr{Op: Add, Dst: 1, A: 2, B: 3}, 2, true},
		{Instr{Op: Store, A: 2, B: 3, Dst: NoReg}, 2, false},
		{Instr{Op: Load, Dst: 1, A: 2, B: NoReg}, 1, true},
		{Instr{Op: Call, Dst: 1, Args: []Reg{2, 3, 4}, A: NoReg, B: NoReg}, 3, true},
		{Instr{Op: Ret, A: NoReg, Dst: NoReg, B: NoReg}, 0, false},
		{Instr{Op: Br, A: 5, Dst: NoReg, B: NoReg}, 1, false},
		{Instr{Op: Const, Dst: 1, Imm: 9, A: NoReg, B: NoReg}, 0, true},
	}
	for _, c := range cases {
		if got := len(c.in.Uses(nil)); got != c.uses {
			t.Errorf("%s Uses = %d, want %d", c.in.String(), got, c.uses)
		}
		if got := c.in.Def() != NoReg; got != c.hasDe {
			t.Errorf("%s Def presence = %v, want %v", c.in.String(), got, c.hasDe)
		}
	}
}

func TestModuleValidate(t *testing.T) {
	m := &Module{Name: "m", Funcs: []*Func{buildDiamond()}}
	m.Funcs[0].Renumber()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}

	// Missing terminator.
	bad := buildDiamond()
	bad.Blocks[3].Instrs = nil
	m2 := &Module{Funcs: []*Func{bad}}
	if err := m2.Validate(); err == nil {
		t.Error("Validate should reject missing terminator")
	}

	// Br with one successor.
	bad2 := buildDiamond()
	bad2.Blocks[0].Succs = bad2.Blocks[0].Succs[:1]
	m3 := &Module{Funcs: []*Func{bad2}}
	if err := m3.Validate(); err == nil {
		t.Error("Validate should reject br with one successor")
	}
}

func TestStringRendering(t *testing.T) {
	f := buildDiamond()
	s := f.String()
	for _, want := range []string{"func diamond", "b0:", "br", "const 10", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("function dump missing %q:\n%s", want, s)
		}
	}
	in := Instr{Op: Store, A: 1, B: 2, Imm: 16, Dst: NoReg}
	if got := in.String(); got != "store [v1+16] = v2" {
		t.Errorf("store render = %q", got)
	}
}
