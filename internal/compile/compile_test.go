package compile

import (
	"strings"
	"testing"

	"bsisa/internal/ir"
	"bsisa/internal/isa"
	"bsisa/internal/lang"
)

// frontend parses, checks and lowers src, optimizing the module when asked:
// Compile's front half, stopping at the IR.
func frontend(t *testing.T, src string, optimize bool) *ir.Module {
	t.Helper()
	file, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := lang.Check(file)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m, err := Lower(file, info, "test")
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if optimize {
		Optimize(m)
		if err := m.Validate(); err != nil {
			t.Fatalf("optimize: %v", err)
		}
	}
	return m
}

func TestLowerProducesValidIR(t *testing.T) {
	src := `
var g;
var arr[16];
func f(a, b) {
	var i;
	for (i = 0; i < a; i = i + 1) {
		arr[i] = arr[i] + b;
		if (arr[i] > 100 || b == 0) { break; }
	}
	return arr[0];
}
func main() { g = f(3, 4); out(g); }`
	m := frontend(t, src, false)
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid IR: %v", err)
	}
	f := m.Func("f")
	if f == nil || len(f.Params) != 2 {
		t.Fatal("f not lowered with 2 params")
	}
	if m.Global("arr").Words != 16 {
		t.Errorf("arr words = %d", m.Global("arr").Words)
	}
}

func countInstrs(f *ir.Func, op ir.Opc) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func totalInstrs(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func TestConstFoldFoldsArithmetic(t *testing.T) {
	m := frontend(t, `func main() { out(2 + 3 * 4); }`, true)
	f := m.Func("main")
	// After folding, no Add/Mul should remain.
	if countInstrs(f, ir.Add) != 0 || countInstrs(f, ir.Mul) != 0 {
		t.Errorf("arithmetic not folded:\n%s", f.String())
	}
}

func TestConstFoldPrunesBranches(t *testing.T) {
	m := frontend(t, `func main() { if (1 < 2) { out(1); } else { out(2); } }`, true)
	f := m.Func("main")
	if countInstrs(f, ir.Br) != 0 {
		t.Errorf("constant branch not folded:\n%s", f.String())
	}
	// The dead arm must be gone: only one Out remains.
	if countInstrs(f, ir.Out) != 1 {
		t.Errorf("dead arm not removed:\n%s", f.String())
	}
}

func TestDeadCodeElimination(t *testing.T) {
	m := frontend(t, `
func main() {
	var unused = 5 * 7;
	var used = 3;
	out(used);
}`, true)
	f := m.Func("main")
	// The unused computation disappears entirely; 35 never materializes.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Const && b.Instrs[i].Imm == 35 {
				t.Errorf("dead constant survived:\n%s", f.String())
			}
		}
	}
}

func TestSimplifyCFGMergesStraightLine(t *testing.T) {
	m := frontend(t, `func main() { var a = 1; { var b = 2; { out(a + b); } } }`, true)
	f := m.Func("main")
	if len(f.Blocks) != 1 {
		t.Errorf("straight-line function has %d blocks, want 1:\n%s", len(f.Blocks), f.String())
	}
}

func TestOptimizeShrinksCode(t *testing.T) {
	src := `
func work(n) {
	var x = 2 * 8;
	var y = x + n;
	var dead = y * y * y;
	return y;
}
func main() { out(work(5)); }`
	unopt := frontend(t, src, false)
	opt := frontend(t, src, true)
	if totalInstrs(opt.Func("work")) >= totalInstrs(unopt.Func("work")) {
		t.Errorf("optimizer did not shrink work: %d -> %d",
			totalInstrs(unopt.Func("work")), totalInstrs(opt.Func("work")))
	}
}

func TestAllocateDisjointRegisters(t *testing.T) {
	src := `
func main() {
	var a = 1; var b = 2; var c = 3; var d = 4;
	out(a + b + c + d);
	out(a * b * c * d);
}`
	m := frontend(t, src, true)
	f := m.Func("main")
	alloc := Allocate(f)
	// Registers live at the same time must be distinct. a..d are all live
	// at the first out; check all allocated regs are within the allocatable
	// range.
	for v, r := range alloc.RegOf {
		if r < isa.RegTmp0 || r > isa.RegTmpN {
			t.Errorf("v%d allocated to non-allocatable %s", v, r)
		}
	}
	if alloc.NumSlots != len(alloc.SlotOf) {
		t.Errorf("NumSlots %d != len(SlotOf) %d", alloc.NumSlots, len(alloc.SlotOf))
	}
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	// Build a function with 30 simultaneously live values.
	var sb strings.Builder
	sb.WriteString("func main() {\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("var v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" = ")
		sb.WriteString(string(rune('1')))
		sb.WriteString(";\n")
	}
	sb.WriteString("out(")
	for i := 0; i < 30; i++ {
		if i > 0 {
			sb.WriteString(" + ")
		}
		sb.WriteString("v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
	}
	sb.WriteString(");\n}\n")
	m := frontend(t, sb.String(), false) // unoptimized keeps all 30 alive
	f := m.Func("main")
	alloc := Allocate(f)
	if alloc.NumSlots == 0 {
		t.Error("expected spills with 30 live values and 18 registers")
	}
}

func TestGenerateConventionalStructure(t *testing.T) {
	src := `
func add(a, b) { return a + b; }
func main() { out(add(2, 3)); }`
	m := frontend(t, src, true)
	p, err := Generate(m, isa.Conventional, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Kind != isa.Conventional {
		t.Error("wrong kind")
	}
	// _start exists and halts.
	start := p.FuncByName("_start")
	if start == nil {
		t.Fatal("no _start")
	}
	entry := p.Block(p.Entry())
	if entry.Terminator() == nil || entry.Terminator().Opcode != isa.CALL {
		t.Error("_start entry should call main")
	}
	// No traps or faults anywhere.
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		for i := range b.Ops {
			if b.Ops[i].Opcode == isa.TRAP || b.Ops[i].Opcode == isa.FAULT {
				t.Errorf("conventional program contains %s", b.Ops[i].Opcode)
			}
		}
	}
}

func TestGenerateBlockStructuredUsesTraps(t *testing.T) {
	src := `func main() { var i; for (i = 0; i < 3; i = i + 1) { out(i); } }`
	m := frontend(t, src, true)
	p, err := Generate(m, isa.BlockStructured, 0)
	if err != nil {
		t.Fatal(err)
	}
	traps, brs := 0, 0
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		for i := range b.Ops {
			switch b.Ops[i].Opcode {
			case isa.TRAP:
				traps++
			case isa.BR:
				brs++
			}
		}
	}
	if traps == 0 {
		t.Error("block-structured program has no traps")
	}
	if brs != 0 {
		t.Error("block-structured program has conventional branches")
	}
}

func TestGenerateBSADropsJumps(t *testing.T) {
	src := `func main() { var i; for (i = 0; i < 3; i = i + 1) { out(i); } }`
	m := frontend(t, src, true)
	pc, _ := Generate(m, isa.Conventional, 0)
	m2 := frontend(t, src, true)
	pb, _ := Generate(m2, isa.BlockStructured, 0)
	count := func(p *isa.Program, opc isa.Opcode) int {
		n := 0
		for _, b := range p.Blocks {
			if b == nil {
				continue
			}
			for i := range b.Ops {
				if b.Ops[i].Opcode == opc {
					n++
				}
			}
		}
		return n
	}
	if count(pb, isa.JMP) != 0 {
		t.Error("BSA blocks should encode unconditional successors in headers, not JMP ops")
	}
	_ = pc
}

func TestBSABlockSizeCapRespected(t *testing.T) {
	// A long straight-line function exceeds 16 ops and must be split.
	var sb strings.Builder
	sb.WriteString("var a[64];\nfunc main() {\n")
	for i := 0; i < 40; i++ {
		sb.WriteString("a[0] = a[0] + 1;\n")
	}
	sb.WriteString("out(a[0]);\n}\n")
	m := frontend(t, sb.String(), false)
	p, err := Generate(m, isa.BlockStructured, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		if len(b.Ops) > 16 {
			t.Errorf("B%d has %d ops > 16", b.ID, len(b.Ops))
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsBadSource(t *testing.T) {
	if _, err := Compile("func main( {", "x", DefaultOptions(isa.Conventional)); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Compile("func f() {}", "x", DefaultOptions(isa.Conventional)); err == nil {
		t.Error("missing main not reported")
	}
	if _, err := Compile("func main() { x = 1; }", "x", DefaultOptions(isa.Conventional)); err == nil {
		t.Error("sema error not reported")
	}
}

func TestLibraryFlagPropagates(t *testing.T) {
	src := `
library func lib(x) { return x + 1; }
func main() { out(lib(1)); }`
	m := frontend(t, src, true)
	p, err := Generate(m, isa.BlockStructured, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := p.FuncByName("lib")
	if f == nil || !f.Library {
		t.Fatal("library flag lost on function")
	}
	for _, b := range p.Blocks {
		if b != nil && b.Func == f.ID && !b.Library {
			t.Errorf("B%d of lib not marked library", b.ID)
		}
	}
}

func TestEvalBinarySemantics(t *testing.T) {
	cases := []struct {
		op   ir.Opc
		a, b int64
		want int64
		ok   bool
	}{
		{ir.Add, 2, 3, 5, true},
		{ir.Div, 7, 2, 3, true},
		{ir.Div, 7, 0, 0, false},
		{ir.Rem, -7, 3, -1, true},
		{ir.Shl, 1, 70, 64, true}, // shift masked to 6 bits
		{ir.Shr, -8, 1, -4, true}, // arithmetic
		{ir.CmpLE, 3, 3, 1, true},
		{ir.CmpGT, 3, 3, 0, true},
	}
	for _, c := range cases {
		got, ok := evalBinary(c.op, c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("evalBinary(%s, %d, %d) = %d,%v want %d,%v", c.op, c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}
