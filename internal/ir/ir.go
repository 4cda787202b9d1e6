// Package ir defines the compiler's intermediate representation: a
// three-address, virtual-register IR organized as a control flow graph of
// basic blocks. The MiniC front end lowers into this IR, the optimizer
// rewrites it, and both the conventional-ISA and block-structured-ISA
// backends consume it. The package also provides the one CFG analysis the
// compiler needs: liveness, for register allocation.
package ir

import (
	"fmt"
	"strings"
)

// Reg is a virtual register. The supply is unbounded; register allocation
// maps virtual registers onto the 32 architectural registers.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("v%d", int32(r))
}

// Opc is an IR operation code.
type Opc uint8

// IR operation codes. Binary arithmetic takes Dst, A, B. Comparison results
// are 0 or 1.
const (
	Nop Opc = iota

	Const // Dst = Imm
	Copy  // Dst = A

	Add
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr // arithmetic shift right (MiniC ints are signed)

	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	Neg // Dst = -A
	Not // Dst = !A (logical: 1 if A == 0 else 0)

	// CmovNZ is a conditional move: Dst = A when B != 0, else Dst keeps its
	// prior value (Dst is also a source). Created by the if-conversion
	// pass; never produced by lowering.
	CmovNZ

	// Memory. Globals are addressed by symbol + word index; locals by frame
	// slot. Addr computes the byte address of an element.
	GlobalAddr // Dst = &global(Sym) (byte address)
	FrameAddr  // Dst = frame base + Imm (byte offset of a local array)
	Load       // Dst = mem[A + Imm]
	Store      // mem[A + Imm] = B

	Call // Dst = Sym(Args...); Dst may be NoReg
	Out  // emit A to the output stream

	// Terminators.
	Br  // if A != 0 goto Succs[0] else Succs[1]
	Jmp // goto Succs[0]
	Ret // return A (or NoReg)
	// Switch is a dense jump table: for index A, goto Succs[A-Imm] when
	// Imm <= A < Imm+len(Succs)-1, else goto Succs[len(Succs)-1] (the final
	// successor is the default).
	Switch

	numOpcs
)

var opcNames = [numOpcs]string{
	Nop: "nop", Const: "const", Copy: "copy",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	Neg: "neg", Not: "not", CmovNZ: "cmovnz",
	GlobalAddr: "gaddr", FrameAddr: "faddr", Load: "load", Store: "store",
	Call: "call", Out: "out",
	Br: "br", Jmp: "jmp", Ret: "ret", Switch: "switch",
}

func (o Opc) String() string {
	if o >= numOpcs {
		return fmt.Sprintf("opc(%d)", uint8(o))
	}
	return opcNames[o]
}

// IsTerm reports whether the opcode terminates a basic block.
func (o Opc) IsTerm() bool { return o == Br || o == Jmp || o == Ret || o == Switch }

// HasDst reports whether the instruction writes Dst.
func (o Opc) HasDst() bool {
	switch o {
	case Const, Copy, Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
		CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, Neg, Not, CmovNZ,
		GlobalAddr, FrameAddr, Load:
		return true
	case Call:
		return true // Dst may still be NoReg for a void-context call
	}
	return false
}

// IsPure reports whether the instruction has no side effects and can be
// removed when its result is dead.
func (o Opc) IsPure() bool {
	switch o {
	case Const, Copy, Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
		CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, Neg, Not, CmovNZ,
		GlobalAddr, FrameAddr, Load, Nop:
		// Loads are treated as pure for DCE: MiniC has no volatile
		// memory and no traps on bad addresses at the IR level.
		return true
	}
	return false
}

// Instr is a three-address instruction.
type Instr struct {
	Op   Opc
	Dst  Reg
	A, B Reg
	Imm  int64
	Sym  string // global symbol or callee name
	Args []Reg  // call arguments
}

// Uses appends the registers the instruction reads to dst and returns the
// extended slice. Scans over many instructions pass one buffer back in
// (uses = in.Uses(uses[:0])) so they do not allocate per instruction.
func (in *Instr) Uses(dst []Reg) []Reg {
	switch in.Op {
	case Const, GlobalAddr, FrameAddr, Nop, Jmp:
	case CmovNZ:
		// The prior value survives when the condition is zero.
		dst = appendReg(dst, in.Dst)
		dst = appendReg(dst, in.A)
		dst = appendReg(dst, in.B)
	case Copy, Neg, Not, Load, Out, Br, Switch, Ret:
		dst = appendReg(dst, in.A)
	case Call:
		for _, a := range in.Args {
			dst = appendReg(dst, a)
		}
	default: // binary ops and Store
		dst = appendReg(dst, in.A)
		dst = appendReg(dst, in.B)
	}
	return dst
}

func appendReg(dst []Reg, r Reg) []Reg {
	if r != NoReg {
		dst = append(dst, r)
	}
	return dst
}

// Def returns the register the instruction writes, or NoReg.
func (in *Instr) Def() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return NoReg
}

func (in *Instr) String() string {
	var sb strings.Builder
	if d := in.Def(); d != NoReg {
		fmt.Fprintf(&sb, "%s = ", d)
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case Const:
		fmt.Fprintf(&sb, " %d", in.Imm)
	case GlobalAddr:
		fmt.Fprintf(&sb, " %s", in.Sym)
	case FrameAddr:
		fmt.Fprintf(&sb, " +%d", in.Imm)
	case Load:
		fmt.Fprintf(&sb, " [%s+%d]", in.A, in.Imm)
	case Store:
		fmt.Fprintf(&sb, " [%s+%d] = %s", in.A, in.Imm, in.B)
	case Call:
		fmt.Fprintf(&sb, " %s(", in.Sym)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
		}
		sb.WriteString(")")
	default:
		if in.A != NoReg {
			fmt.Fprintf(&sb, " %s", in.A)
		}
		if in.B != NoReg {
			fmt.Fprintf(&sb, ", %s", in.B)
		}
	}
	return sb.String()
}

// Block is an IR basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block
}

// Term returns the block's terminator, or nil if the block has none yet.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerm() {
		return last
	}
	return nil
}

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "b%d:", b.ID)
	if len(b.Succs) > 0 {
		sb.WriteString(" ->")
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.ID)
		}
	}
	sb.WriteByte('\n')
	for i := range b.Instrs {
		fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
	}
	return sb.String()
}

// Global is a module-level variable (scalar or array of 64-bit words).
type Global struct {
	Name  string
	Words int32 // 1 for a scalar
}

// Func is an IR function.
type Func struct {
	Name    string
	Params  []Reg // virtual registers holding incoming arguments
	Entry   *Block
	Blocks  []*Block
	NextReg Reg
	Library bool
	// FrameWords is the number of 8-byte frame words reserved for local
	// arrays (FrameAddr offsets point into this area). Spill slots are
	// appended by register allocation.
	FrameWords int32
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := f.NextReg
	f.NextReg++
	return r
}

// NewBlock allocates and appends a new basic block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Renumber reassigns dense block IDs after block removal.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// ComputePreds recomputes every block's predecessor list from Succs.
func (f *Func) ComputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	sb.WriteString(")\n")
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}

// Module is a compiled translation unit.
type Module struct {
	Name    string
	Globals []Global
	Funcs   []*Func
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	for i := range m.Globals {
		if m.Globals[i].Name == name {
			return &m.Globals[i]
		}
	}
	return nil
}

// Validate checks IR structural invariants.
func (m *Module) Validate() error {
	for _, f := range m.Funcs {
		if f.Entry == nil {
			return fmt.Errorf("ir: func %s has no entry", f.Name)
		}
		seen := map[*Block]bool{}
		for i, b := range f.Blocks {
			if b.ID != i {
				return fmt.Errorf("ir: func %s block at %d has ID %d", f.Name, i, b.ID)
			}
			if seen[b] {
				return fmt.Errorf("ir: func %s block b%d appears twice", f.Name, b.ID)
			}
			seen[b] = true
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op.IsTerm() && i != len(b.Instrs)-1 {
					return fmt.Errorf("ir: func %s b%d has terminator mid-block", f.Name, b.ID)
				}
			}
			t := b.Term()
			switch {
			case t == nil:
				return fmt.Errorf("ir: func %s b%d has no terminator", f.Name, b.ID)
			case t.Op == Br && len(b.Succs) != 2:
				return fmt.Errorf("ir: func %s b%d br with %d succs", f.Name, b.ID, len(b.Succs))
			case t.Op == Jmp && len(b.Succs) != 1:
				return fmt.Errorf("ir: func %s b%d jmp with %d succs", f.Name, b.ID, len(b.Succs))
			case t.Op == Ret && len(b.Succs) != 0:
				return fmt.Errorf("ir: func %s b%d ret with %d succs", f.Name, b.ID, len(b.Succs))
			case t.Op == Switch && len(b.Succs) < 2:
				return fmt.Errorf("ir: func %s b%d switch with %d succs", f.Name, b.ID, len(b.Succs))
			}
			for _, s := range b.Succs {
				if !seen[s] {
					return fmt.Errorf("ir: func %s b%d successor not in func", f.Name, b.ID)
				}
			}
		}
	}
	return nil
}
