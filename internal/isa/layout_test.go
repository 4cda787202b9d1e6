package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLayoutIdempotent(t *testing.T) {
	p := testProgram(t)
	p.Layout()
	first := map[BlockID]uint32{}
	for _, b := range p.Blocks {
		if b != nil {
			first[b.ID] = b.Addr
		}
	}
	p.Layout()
	for _, b := range p.Blocks {
		if b != nil && first[b.ID] != b.Addr {
			t.Errorf("B%d moved: %#x -> %#x", b.ID, first[b.ID], b.Addr)
		}
	}
}

func TestLayoutGroupsByFunction(t *testing.T) {
	p := testProgram(t)
	p.Layout()
	// All of main's blocks precede f's block or vice versa, contiguously per
	// function.
	var mainLo, mainHi, fLo, fHi uint32 = ^uint32(0), 0, ^uint32(0), 0
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		if b.Func == 0 {
			if b.Addr < mainLo {
				mainLo = b.Addr
			}
			if b.Addr+b.Size > mainHi {
				mainHi = b.Addr + b.Size
			}
		} else {
			if b.Addr < fLo {
				fLo = b.Addr
			}
			if b.Addr+b.Size > fHi {
				fHi = b.Addr + b.Size
			}
		}
	}
	if !(mainHi <= fLo || fHi <= mainLo) {
		t.Errorf("function extents interleave: main [%#x,%#x) f [%#x,%#x)", mainLo, mainHi, fLo, fHi)
	}
}

func TestCodeBytesMatchesLayoutExtent(t *testing.T) {
	p := testProgram(t)
	p.Layout()
	var hi uint32
	for _, b := range p.Blocks {
		if b != nil && b.Addr+b.Size > hi {
			hi = b.Addr + b.Size
		}
	}
	if got := p.CodeBytes(); got != hi-CodeBase {
		t.Errorf("CodeBytes = %d, layout extent %d", got, hi-CodeBase)
	}
}

func TestQuickEncodedSizeConsistent(t *testing.T) {
	f := func(nOps uint8, bs bool) bool {
		b := NewBlock(0)
		b.Ops = make([]Op, int(nOps)%64)
		kind := Conventional
		if bs {
			kind = BlockStructured
		}
		want := uint32(len(b.Ops)) * OpBytes
		if bs {
			want += HeaderBytes
		}
		return b.EncodedSize(kind) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleBSAAnnotations(t *testing.T) {
	p := &Program{Kind: BlockStructured, Name: "bsa"}
	p.Funcs = []*Func{{ID: 0, Name: "main", Entry: 0}}
	b := NewBlock(0)
	b.Ops = []Op{
		{Opcode: ADDI, Rd: 11, Rs1: RegZero, Imm: 1},
		{Opcode: FAULT, Rs1: 11, Target: 1, FaultNZ: true},
		{Opcode: TRAP, Rs1: 11, Target: 1},
	}
	b.Succs = []BlockID{1, 1, 1}
	b.TakenCount = 2
	b.RecomputeHistBits()
	p.AddBlock(b)
	halt := NewBlock(0)
	halt.Ops = []Op{{Opcode: HALT}}
	p.AddBlock(halt)
	p.Layout()
	out := Disassemble(p)
	for _, want := range []string{"fault r11, B1 if!=0", "trap r11, B1", "hist=2", " | "} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

// TestKindString pins every kind's name, and that a kind out of range
// prints by number rather than as a valid kind.
func TestKindString(t *testing.T) {
	for _, tc := range []struct {
		k    Kind
		want string
	}{
		{Conventional, "conventional"},
		{BlockStructured, "block-structured"},
		{BasicBlocker, "basicblocker"},
		{MacroFused, "fused"},
		{Kind(NumKinds), "kind(4)"},
		{Kind(255), "kind(255)"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(tc.k), got, tc.want)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	p := testProgram(t)
	if p.FuncByName("main") == nil || p.FuncByName("nope") != nil {
		t.Error("FuncByName wrong")
	}
	if p.Block(NoBlock) != nil || p.Block(999) != nil {
		t.Error("Block bounds wrong")
	}
	if p.Entry() != p.Funcs[p.EntryFunc].Entry {
		t.Error("Entry wrong")
	}
	n := p.NumLiveBlocks()
	p.Blocks[2] = nil
	if p.NumLiveBlocks() != n-1 {
		t.Error("NumLiveBlocks ignores holes")
	}
}
