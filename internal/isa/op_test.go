package isa

import (
	"strings"
	"testing"
)

func TestClassLatenciesMatchTable1(t *testing.T) {
	// Table 1 of the paper.
	want := map[Class]int{
		ClassInt:      1,
		ClassFPAdd:    3,
		ClassMul:      3,
		ClassDiv:      8,
		ClassLoad:     2,
		ClassStore:    1,
		ClassBitField: 1,
		ClassBranch:   1,
	}
	for c, lat := range want {
		if got := c.Latency(); got != lat {
			t.Errorf("%s latency = %d, want %d", c, got, lat)
		}
	}
	rows := Classes()
	if len(rows) != 8 {
		t.Fatalf("Classes() returned %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Latency != want[r.Class] {
			t.Errorf("Classes() row %s latency %d, want %d", r.Class, r.Latency, want[r.Class])
		}
		if r.Description == "" {
			t.Errorf("Classes() row %s has empty description", r.Class)
		}
	}
}

func TestOpcodeClasses(t *testing.T) {
	cases := map[Opcode]Class{
		ADD:   ClassInt,
		ADDI:  ClassInt,
		LUI:   ClassInt,
		MUL:   ClassMul,
		FMUL:  ClassMul,
		DIV:   ClassDiv,
		REM:   ClassDiv,
		FDIV:  ClassDiv,
		FADD:  ClassFPAdd,
		FSUB:  ClassFPAdd,
		SHL:   ClassBitField,
		SARI:  ClassBitField,
		LD:    ClassLoad,
		ST:    ClassStore,
		OUT:   ClassStore,
		BR:    ClassBranch,
		TRAP:  ClassBranch,
		FAULT: ClassBranch,
		CALL:  ClassBranch,
		RET:   ClassBranch,
		HALT:  ClassBranch,
	}
	for op, cls := range cases {
		if op.Class() != cls {
			t.Errorf("%s class = %s, want %s", op, op.Class(), cls)
		}
	}
}

func TestOpcodeIsBlockEnd(t *testing.T) {
	ends := []Opcode{BR, JMP, CALL, RET, JR, TRAP, HALT}
	for _, o := range ends {
		if !o.IsBlockEnd() {
			t.Errorf("%s should be a block end", o)
		}
	}
	notEnds := []Opcode{FAULT, ADD, LD, ST, NOP, OUT}
	for _, o := range notEnds {
		if o.IsBlockEnd() {
			t.Errorf("%s should not be a block end", o)
		}
	}
}

func TestOpReadsWrites(t *testing.T) {
	add := Op{Opcode: ADD, Rd: 5, Rs1: 6, Rs2: 7}
	if rd, ok := add.Writes(); !ok || rd != 5 {
		t.Errorf("add Writes = %v %v, want 5 true", rd, ok)
	}
	if reads, n := add.ReadRegs(); n != 2 || reads[0] != 6 || reads[1] != 7 {
		t.Errorf("add ReadRegs = %v, %d, want [6 7]", reads[:n], n)
	}

	st := Op{Opcode: ST, Rs1: 3, Rs2: 4, Imm: 8}
	if _, ok := st.Writes(); ok {
		t.Error("st should not write a register")
	}
	if reads, n := st.ReadRegs(); n != 2 {
		t.Errorf("st ReadRegs = %v, want two registers", reads[:n])
	}

	jmp := Op{Opcode: JMP, Target: 3}
	if reads, n := jmp.ReadRegs(); n != 0 {
		t.Errorf("jmp ReadRegs = %v, want none", reads[:n])
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Opcode: ADD, Rd: 11, Rs1: 12, Rs2: 13}, "add r11, r12, r13"},
		{Op{Opcode: ADDI, Rd: 11, Rs1: RegSP, Imm: -16}, "addi r11, sp, -16"},
		{Op{Opcode: LD, Rd: 4, Rs1: 1, Imm: 8}, "ld r4, sp, 8"},
		{Op{Opcode: BR, Rs1: 9, Target: 42}, "br r9, B42"},
		{Op{Opcode: FAULT, Rs1: 9, Target: 7, FaultNZ: true}, "fault r9, B7 if!=0"},
		{Op{Opcode: FAULT, Rs1: 9, Target: 7}, "fault r9, B7 if==0"},
		{Op{Opcode: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRegString(t *testing.T) {
	if RegZero.String() != "zero" || RegSP.String() != "sp" || RegLR.String() != "lr" {
		t.Errorf("special register names wrong: %s %s %s", RegZero, RegSP, RegLR)
	}
	if Reg(17).String() != "r17" {
		t.Errorf("Reg(17) = %s", Reg(17))
	}
}

func TestHistBitsFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3}
	for n, want := range cases {
		if got := histBitsFor(n); got != want {
			t.Errorf("histBitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBlockHelpers(t *testing.T) {
	b := NewBlock(0)
	b.Ops = []Op{
		{Opcode: ADD, Rd: 11, Rs1: 12, Rs2: 13},
		{Opcode: FAULT, Rs1: 11, Target: 2},
		{Opcode: TRAP, Rs1: 11},
	}
	b.Succs = []BlockID{1, 2, 3}
	b.TakenCount = 2
	b.RecomputeHistBits()

	if b.NumFaults() != 1 {
		t.Errorf("NumFaults = %d, want 1", b.NumFaults())
	}
	if b.Terminator() == nil || b.Terminator().Opcode != TRAP {
		t.Error("Terminator should be the trap")
	}
	if b.HistBits != 2 {
		t.Errorf("HistBits = %d, want 2", b.HistBits)
	}
	if got := b.TakenSuccs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("TakenSuccs = %v", got)
	}
	if got := b.NotTakenSuccs(); len(got) != 1 || got[0] != 3 {
		t.Errorf("NotTakenSuccs = %v", got)
	}
	if b.SuccIndex(3) != 2 || b.SuccIndex(99) != -1 {
		t.Error("SuccIndex wrong")
	}
	if b.Cont != NoBlock {
		t.Error("NewBlock should initialize Cont to NoBlock")
	}
}

func TestBlockEncodedSize(t *testing.T) {
	b := NewBlock(0)
	b.Ops = make([]Op, 5)
	if got := b.EncodedSize(Conventional); got != 20 {
		t.Errorf("conventional size = %d, want 20", got)
	}
	if got := b.EncodedSize(BlockStructured); got != 28 {
		t.Errorf("block-structured size = %d, want 28", got)
	}
}

func TestProgramLayoutAssignsDisjointAddresses(t *testing.T) {
	p := testProgram(t)
	p.Layout()
	type extent struct{ lo, hi uint32 }
	var exts []extent
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		if b.Addr < CodeBase {
			t.Errorf("B%d addr %#x below code base", b.ID, b.Addr)
		}
		if b.Size != b.EncodedSize(p.Kind) {
			t.Errorf("B%d size %d, want %d", b.ID, b.Size, b.EncodedSize(p.Kind))
		}
		exts = append(exts, extent{b.Addr, b.Addr + b.Size})
	}
	for i := range exts {
		for j := i + 1; j < len(exts); j++ {
			if exts[i].lo < exts[j].hi && exts[j].lo < exts[i].hi {
				t.Fatalf("blocks %d and %d overlap: %v %v", i, j, exts[i], exts[j])
			}
		}
	}
}

// testProgram builds a tiny two-function conventional program:
//
//	main: B0 -> B1/B2 (br), B1 -> call f -> B3, B2 -> B3, B3: halt
//	f:    B4: ret
func testProgram(t *testing.T) *Program {
	t.Helper()
	p := &Program{Kind: Conventional, Name: "test"}
	main := &Func{ID: 0, Name: "main", Entry: 0}
	f := &Func{ID: 1, Name: "f", Entry: 4}
	p.Funcs = []*Func{main, f}

	b0 := NewBlock(0)
	b0.Ops = []Op{
		{Opcode: ADDI, Rd: 11, Rs1: RegZero, Imm: 1},
		{Opcode: BR, Rs1: 11, Target: 1},
	}
	b0.Succs = []BlockID{1, 2}
	b0.TakenCount = 1
	b0.RecomputeHistBits()

	b1 := NewBlock(0)
	b1.Ops = []Op{{Opcode: CALL, Target: 4}}
	b1.Succs = []BlockID{4}
	b1.Cont = 3

	b2 := NewBlock(0)
	b2.Ops = []Op{{Opcode: JMP, Target: 3}}
	b2.Succs = []BlockID{3}

	b3 := NewBlock(0)
	b3.Ops = []Op{{Opcode: HALT}}

	b4 := NewBlock(1)
	b4.Ops = []Op{{Opcode: RET, Rs1: RegLR}}

	for _, b := range []*Block{b0, b1, b2, b3, b4} {
		p.AddBlock(b)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("testProgram invalid: %v", err)
	}
	return p
}

func TestValidateCatchesDanglingSuccessor(t *testing.T) {
	p := testProgram(t)
	p.Blocks[0].Succs[0] = 99
	if err := p.Validate(); err == nil {
		t.Error("Validate should reject dangling successor")
	}
}

func TestValidateCatchesWrongISAOps(t *testing.T) {
	p := testProgram(t)
	p.Blocks[0].Ops[1] = Op{Opcode: TRAP, Rs1: 11}
	if err := p.Validate(); err == nil {
		t.Error("Validate should reject trap in conventional program")
	}
}

func TestValidateCatchesMidBlockTerminator(t *testing.T) {
	p := testProgram(t)
	b := p.Blocks[3]
	b.Ops = []Op{{Opcode: HALT}, {Opcode: NOP}}
	if err := p.Validate(); err == nil {
		t.Error("Validate should reject mid-block terminator")
	}
}

func TestValidateCatchesBadHistBits(t *testing.T) {
	p := testProgram(t)
	p.Blocks[0].HistBits = 3
	if err := p.Validate(); err == nil {
		t.Error("Validate should reject wrong HistBits")
	}
}

func TestDisassembleMentionsEveryBlock(t *testing.T) {
	p := testProgram(t)
	p.Layout()
	text := Disassemble(p)
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		if !strings.Contains(text, "B"+itoa(int(b.ID))+":") {
			t.Errorf("disassembly missing block B%d:\n%s", b.ID, text)
		}
	}
	if !strings.Contains(text, "func main") || !strings.Contains(text, "func f") {
		t.Error("disassembly missing function headers")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
