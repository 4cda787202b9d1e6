// Package isa defines the two instruction set architectures studied in the
// reproduction of Hao, Chang, Evers and Patt, "Increasing the Instruction
// Fetch Rate via Block-Structured Instruction Set Architectures" (MICRO-29,
// 1996):
//
//   - a conventional load/store ISA whose unit of control is the basic block,
//     and
//   - the block-structured ISA (BSA) built on top of it, whose architectural
//     atomic unit is the atomic block: a group of operations that commits
//     all-or-nothing, terminated by a trap operation and possibly containing
//     fault operations introduced by the block enlargement optimization.
//
// Both ISAs share the same operation set (the paper derives its BSA from the
// load/store ISA that forms its baseline, so that "any architectural
// advantages ... with the exception of those due to block-structuring" are
// eliminated). The package provides the operation and block representations,
// the Table-1 operation classes and execution latencies, program containers,
// code layout (address assignment), a binary encoder/decoder and a text
// disassembler.
package isa

import "fmt"

// Reg names one of the 32 architectural integer registers.
type Reg uint8

// Architectural register conventions used by the compiler and emulator.
const (
	RegZero Reg = 0  // hardwired zero
	RegSP   Reg = 1  // stack pointer
	RegRV   Reg = 2  // return value
	RegArg0 Reg = 3  // first argument register; arguments use r3..r10
	RegArgN Reg = 10 // last argument register
	RegTmp0 Reg = 11 // first allocatable temporary
	RegTmpN Reg = 28 // last allocatable temporary
	RegSav0 Reg = 29 // scratch register reserved for spill reloads
	RegSav1 Reg = 30 // second scratch register reserved for spill reloads
	RegLR   Reg = 31 // link register

	// NumRegs is the number of architectural registers.
	NumRegs = 32
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch r {
	case RegZero:
		return "zero"
	case RegSP:
		return "sp"
	case RegLR:
		return "lr"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Class is an operation class from Table 1 of the paper. Each class has a
// fixed execution latency on the sixteen uniform functional units.
type Class uint8

// Operation classes, in the order of Table 1.
const (
	ClassInt      Class = iota // INT add, sub and logic ops
	ClassFPAdd                 // FP add, sub and convert
	ClassMul                   // FP mul and INT mul
	ClassDiv                   // FP div and INT div
	ClassLoad                  // memory loads
	ClassStore                 // memory stores
	ClassBitField              // shift and bit testing
	ClassBranch                // control instructions
	numClasses
)

// Latency returns the execution latency in cycles of the class, per Table 1.
func (c Class) Latency() int {
	return classLatencies[c]
}

var classLatencies = [numClasses]int{
	ClassInt:      1,
	ClassFPAdd:    3,
	ClassMul:      3,
	ClassDiv:      8,
	ClassLoad:     2,
	ClassStore:    1,
	ClassBitField: 1,
	ClassBranch:   1,
}

// String returns the Table-1 name of the class.
func (c Class) String() string {
	switch c {
	case ClassInt:
		return "Integer"
	case ClassFPAdd:
		return "FP Add"
	case ClassMul:
		return "FP/INT Mul"
	case ClassDiv:
		return "FP/INT Div"
	case ClassLoad:
		return "Load"
	case ClassStore:
		return "Store"
	case ClassBitField:
		return "Bit Field"
	case ClassBranch:
		return "Branch"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// ClassInfo describes one row of Table 1.
type ClassInfo struct {
	Class       Class
	Latency     int
	Description string
}

// Classes returns the Table-1 rows: every operation class with its execution
// latency and description. The bsbench "table1" experiment prints exactly
// this.
func Classes() []ClassInfo {
	return []ClassInfo{
		{ClassInt, ClassInt.Latency(), "INT add, sub and logic OPs"},
		{ClassFPAdd, ClassFPAdd.Latency(), "FP add, sub, and convert"},
		{ClassMul, ClassMul.Latency(), "FP mul and INT mul"},
		{ClassDiv, ClassDiv.Latency(), "FP div and INT div"},
		{ClassLoad, ClassLoad.Latency(), "Memory loads"},
		{ClassStore, ClassStore.Latency(), "Memory stores"},
		{ClassBitField, ClassBitField.Latency(), "Shift, and bit testing"},
		{ClassBranch, ClassBranch.Latency(), "Control instructions"},
	}
}

// Opcode identifies an operation.
type Opcode uint8

// Operation opcodes. Register-register forms take Rd, Rs1, Rs2; immediate
// forms take Rd, Rs1, Imm. Control operations are described individually.
const (
	NOP Opcode = iota
	HALT

	// Integer register-register operations (ClassInt).
	ADD
	SUB
	AND
	OR
	XOR
	SLT // rd = (rs1 < rs2)  signed
	SLE // rd = (rs1 <= rs2) signed
	SEQ // rd = (rs1 == rs2)
	SNE // rd = (rs1 != rs2)

	// Integer immediate operations (ClassInt).
	ADDI
	ANDI
	ORI
	XORI
	SLTI // rd = (rs1 < imm)
	LUI  // rd = imm << 16

	// CMOVNZ is a conditional move: rd = rs1 when rs2 != 0, else rd keeps
	// its value (rd is therefore also a source). Predicated execution
	// support (paper §6); ClassInt.
	CMOVNZ

	// Multiply and divide (ClassMul / ClassDiv).
	MUL
	DIV
	REM

	// Floating-point operations, included for Table-1 completeness. The
	// register file is shared; values are interpreted as IEEE-754 bit
	// patterns.
	FADD // ClassFPAdd
	FSUB // ClassFPAdd
	FCVT // ClassFPAdd: int -> float conversion
	FMUL // ClassMul
	FDIV // ClassDiv

	// Shifts (ClassBitField).
	SHL
	SHR // logical
	SAR // arithmetic
	SHLI
	SHRI
	SARI

	// Memory (ClassLoad / ClassStore). Addresses are byte addresses of
	// 8-byte words: addr = rs1 + imm.
	LD  // rd = mem[rs1+imm]
	ST  // mem[rs1+imm] = rs2
	OUT // append rs1 to the program's output stream (ClassStore)

	// Control (ClassBranch).
	BR    // conventional conditional branch: taken iff rs1 != 0; Target = taken block
	JMP   // unconditional jump; Target = destination block
	CALL  // call: lr = continuation block id; Target = callee entry block
	RET   // return: next block = block id in lr (rs1 names the register, normally lr)
	JR    // indirect jump through rs1
	TRAP  // BSA block terminator: taken iff rs1 != 0; successor sets in block header
	FAULT // BSA fault: if condition fires, suppress the block, redirect to Target.
	//       FaultNZ selects fire-if-nonzero vs fire-if-zero.

	numOpcodes
)

var opcodeInfo = [numOpcodes]struct {
	name  string
	class Class
	// format flags
	hasRd, hasRs1, hasRs2, hasImm, hasTarget bool
}{
	NOP:    {"nop", ClassInt, false, false, false, false, false},
	HALT:   {"halt", ClassBranch, false, false, false, false, false},
	ADD:    {"add", ClassInt, true, true, true, false, false},
	SUB:    {"sub", ClassInt, true, true, true, false, false},
	AND:    {"and", ClassInt, true, true, true, false, false},
	OR:     {"or", ClassInt, true, true, true, false, false},
	XOR:    {"xor", ClassInt, true, true, true, false, false},
	SLT:    {"slt", ClassInt, true, true, true, false, false},
	SLE:    {"sle", ClassInt, true, true, true, false, false},
	SEQ:    {"seq", ClassInt, true, true, true, false, false},
	SNE:    {"sne", ClassInt, true, true, true, false, false},
	ADDI:   {"addi", ClassInt, true, true, false, true, false},
	ANDI:   {"andi", ClassInt, true, true, false, true, false},
	ORI:    {"ori", ClassInt, true, true, false, true, false},
	XORI:   {"xori", ClassInt, true, true, false, true, false},
	SLTI:   {"slti", ClassInt, true, true, false, true, false},
	LUI:    {"lui", ClassInt, true, false, false, true, false},
	CMOVNZ: {"cmovnz", ClassInt, true, true, true, false, false},
	MUL:    {"mul", ClassMul, true, true, true, false, false},
	DIV:    {"div", ClassDiv, true, true, true, false, false},
	REM:    {"rem", ClassDiv, true, true, true, false, false},
	FADD:   {"fadd", ClassFPAdd, true, true, true, false, false},
	FSUB:   {"fsub", ClassFPAdd, true, true, true, false, false},
	FCVT:   {"fcvt", ClassFPAdd, true, true, false, false, false},
	FMUL:   {"fmul", ClassMul, true, true, true, false, false},
	FDIV:   {"fdiv", ClassDiv, true, true, true, false, false},
	SHL:    {"shl", ClassBitField, true, true, true, false, false},
	SHR:    {"shr", ClassBitField, true, true, true, false, false},
	SAR:    {"sar", ClassBitField, true, true, true, false, false},
	SHLI:   {"shli", ClassBitField, true, true, false, true, false},
	SHRI:   {"shri", ClassBitField, true, true, false, true, false},
	SARI:   {"sari", ClassBitField, true, true, false, true, false},
	LD:     {"ld", ClassLoad, true, true, false, true, false},
	ST:     {"st", ClassStore, false, true, true, true, false},
	OUT:    {"out", ClassStore, false, true, false, false, false},
	BR:     {"br", ClassBranch, false, true, false, false, true},
	JMP:    {"jmp", ClassBranch, false, false, false, false, true},
	CALL:   {"call", ClassBranch, false, false, false, false, true},
	RET:    {"ret", ClassBranch, false, true, false, false, false},
	JR:     {"jr", ClassBranch, false, true, false, false, false},
	TRAP:   {"trap", ClassBranch, false, true, false, false, true},
	FAULT:  {"fault", ClassBranch, false, true, false, false, true},
}

// Class returns the Table-1 class of the opcode.
func (o Opcode) Class() Class {
	if o >= numOpcodes {
		return ClassInt
	}
	return opcodeInfo[o].class
}

// Latency returns the execution latency of the opcode.
func (o Opcode) Latency() int { return o.Class().Latency() }

// String returns the assembler mnemonic.
func (o Opcode) String() string {
	if o >= numOpcodes {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opcodeInfo[o].name
}

// IsBlockEnd reports whether an operation with this opcode terminates a
// block's operation list (FAULT does not: faults appear mid-block).
func (o Opcode) IsBlockEnd() bool {
	switch o {
	case BR, JMP, CALL, RET, JR, TRAP, HALT:
		return true
	}
	return false
}

// Op is a single operation. Operations are fixed-size (4 bytes encoded); the
// in-memory form keeps decoded fields for convenience.
type Op struct {
	Opcode Opcode
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int32 // 16-bit encodable immediate (LUI shifts it left 16)
	// Target is a block-level control target for BR/JMP/CALL/FAULT. CALL
	// targets the callee's entry block. It is resolved to an address by
	// Layout.
	Target BlockID
	// FaultNZ selects the FAULT polarity: if true the fault fires when
	// rs1 != 0, otherwise when rs1 == 0.
	FaultNZ bool
}

// ReadRegs returns the registers the operation reads: the first n entries
// of regs. The zero register is included when named (readers treat it as
// always-ready). A conditional move also reads its destination (the
// not-taken value).
func (o *Op) ReadRegs() (regs [3]Reg, n int) {
	info := &opcodeInfo[o.Opcode]
	if o.Opcode == CMOVNZ {
		regs[n] = o.Rd
		n++
	}
	if info.hasRs1 {
		regs[n] = o.Rs1
		n++
	}
	if info.hasRs2 {
		regs[n] = o.Rs2
		n++
	}
	return regs, n
}

// Writes returns the register the operation writes, or (0, false) if none.
func (o *Op) Writes() (Reg, bool) {
	if opcodeInfo[o.Opcode].hasRd {
		return o.Rd, true
	}
	return 0, false
}

// String renders the operation in assembler syntax.
func (o *Op) String() string {
	info := &opcodeInfo[o.Opcode]
	s := info.name
	sep := " "
	if info.hasRd {
		s += sep + o.Rd.String()
		sep = ", "
	}
	if info.hasRs1 {
		s += sep + o.Rs1.String()
		sep = ", "
	}
	if info.hasRs2 {
		s += sep + o.Rs2.String()
		sep = ", "
	}
	if info.hasImm {
		s += fmt.Sprintf("%s%d", sep, o.Imm)
		sep = ", "
	}
	if info.hasTarget {
		s += fmt.Sprintf("%sB%d", sep, o.Target)
	}
	if o.Opcode == FAULT {
		if o.FaultNZ {
			s += " if!=0"
		} else {
			s += " if==0"
		}
	}
	return s
}
