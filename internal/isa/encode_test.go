package isa

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// genOp produces a random well-formed operation for property tests.
func genOp(r *rand.Rand) Op {
	// Choose among representative opcodes of each format.
	opcodes := []Opcode{
		NOP, HALT, ADD, SUB, AND, OR, XOR, SLT, SLE, SEQ, SNE,
		ADDI, ANDI, ORI, XORI, SLTI, LUI, MUL, DIV, REM,
		FADD, FSUB, FCVT, FMUL, FDIV,
		SHL, SHR, SAR, SHLI, SHRI, SARI,
		LD, ST, OUT, BR, JMP, CALL, RET, JR, TRAP, FAULT, CMOVNZ,
	}
	opc := opcodes[r.Intn(len(opcodes))]
	info := opcodeInfo[opc]
	var op Op
	op.Opcode = opc
	if info.hasRd {
		op.Rd = Reg(r.Intn(NumRegs))
	}
	if info.hasRs1 {
		op.Rs1 = Reg(r.Intn(NumRegs))
	}
	if info.hasRs2 {
		op.Rs2 = Reg(r.Intn(NumRegs))
	}
	if info.hasImm {
		switch opc {
		case LUI, ANDI, ORI, XORI:
			op.Imm = int32(r.Intn(0x10000)) // zero-extended immediates
		default:
			op.Imm = int32(r.Intn(immMax-immMin+1) + immMin)
		}
	}
	if info.hasTarget {
		if opc == FAULT {
			op.Target = BlockID(r.Intn(maxBlockTarget >> 1))
			op.FaultNZ = r.Intn(2) == 0
		} else {
			op.Target = BlockID(r.Intn(maxBlockTarget))
		}
	}
	return op
}

func TestOpEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		op := genOp(r)
		w, err := EncodeOp(&op)
		if err != nil {
			t.Fatalf("EncodeOp(%v): %v", op, err)
		}
		got, err := DecodeOp(w)
		if err != nil {
			t.Fatalf("DecodeOp(%#x): %v", w, err)
		}
		if got != op {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v\n word %#x", op, got, w)
		}
	}
}

func TestEncodeOpRejectsOutOfRange(t *testing.T) {
	bad := []Op{
		{Opcode: ADDI, Rd: 1, Rs1: 2, Imm: 40000},
		{Opcode: ADDI, Rd: 1, Rs1: 2, Imm: -40000},
		{Opcode: LUI, Rd: 1, Imm: -1},
		{Opcode: LUI, Rd: 1, Imm: 0x10000},
		{Opcode: JMP, Target: maxBlockTarget},
		{Opcode: FAULT, Rs1: 1, Target: maxBlockTarget >> 1},
		{Opcode: Opcode(200)},
	}
	for _, op := range bad {
		if _, err := EncodeOp(&op); err == nil {
			t.Errorf("EncodeOp(%v) should fail", op)
		}
	}
}

func TestDecodeOpRejectsInvalidOpcode(t *testing.T) {
	w := uint32(uint32(numOpcodes) << 26)
	if _, err := DecodeOp(w); !errors.Is(err, ErrBadContainer) {
		t.Errorf("DecodeOp of an invalid opcode: %v, want ErrBadContainer", err)
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	p := testProgram(t)
	p.GlobalWords = 17
	p.GlobalOffsets = map[string]int32{"a": 0, "buf": 1}
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.Kind != p.Kind || q.Name != p.Name || q.EntryFunc != p.EntryFunc || q.GlobalWords != p.GlobalWords {
		t.Error("program header mismatch after round trip")
	}
	if len(q.Funcs) != len(p.Funcs) {
		t.Fatalf("func count %d, want %d", len(q.Funcs), len(p.Funcs))
	}
	for i := range p.Funcs {
		if *q.Funcs[i] != *p.Funcs[i] {
			t.Errorf("func %d mismatch: %+v vs %+v", i, q.Funcs[i], p.Funcs[i])
		}
	}
	if len(q.Blocks) != len(p.Blocks) {
		t.Fatalf("block count %d, want %d", len(q.Blocks), len(p.Blocks))
	}
	for i := range p.Blocks {
		a, b := p.Blocks[i], q.Blocks[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("block %d nil-ness mismatch", i)
		}
		if a == nil {
			continue
		}
		// Addr/Size are layout artifacts, not part of the container.
		a2 := *a
		a2.Addr, a2.Size = 0, 0
		if !reflect.DeepEqual(a2.Ops, b.Ops) || !reflect.DeepEqual(a2.Succs, b.Succs) ||
			a2.TakenCount != b.TakenCount || a2.HistBits != b.HistBits ||
			a2.Cont != b.Cont || a2.Library != b.Library || a2.Func != b.Func {
			t.Errorf("block %d mismatch:\n %+v\n %+v", i, a2, *b)
		}
	}
	if !reflect.DeepEqual(q.GlobalOffsets, p.GlobalOffsets) {
		t.Errorf("globals mismatch: %v vs %v", q.GlobalOffsets, p.GlobalOffsets)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("decoded program invalid: %v", err)
	}
}

func TestProgramEncodePreservesNilBlocks(t *testing.T) {
	p := testProgram(t)
	// Simulate a DCE hole.
	p.Blocks[2] = nil
	p.Blocks[0].Succs[1] = 3
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.Blocks[2] != nil {
		t.Error("nil block not preserved")
	}
}

// TestEncodedLen: Encode sizes its buffer from encodedLen, so the two must
// agree byte for byte.
func TestEncodedLen(t *testing.T) {
	p := testProgram(t)
	p.GlobalOffsets = map[string]int32{"a": 0, "buf": 1}
	p.Rodata = []int64{1, -2}
	p.Blocks = append(p.Blocks, nil)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := encodedLen(p); n != len(data) {
		t.Fatalf("encodedLen = %d, Encode wrote %d bytes", n, len(data))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a program")); !errors.Is(err, ErrBadContainer) {
		t.Errorf("Decode of bad magic: %v, want ErrBadContainer", err)
	}
	p := testProgram(t)
	data, _ := Encode(p)
	for _, cut := range []int{0, 3, 5, 10, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrBadContainer) {
			t.Errorf("Decode of a truncation at %d: %v, want ErrBadContainer", cut, err)
		}
	}
}

// TestDecodeBoundsGlobalCount hands Decode a 29-byte container whose
// global count claims 2^22 entries. Decode must fail without allocating in
// proportion to the claim: a globals map sized from it would take 224 MB.
func TestDecodeBoundsGlobalCount(t *testing.T) {
	data := append([]byte{}, containerMagic[:]...)
	data = append(data, byte(Conventional))
	for _, v := range []uint32{0, 0, 0, 0, 0, 1 << 22} { // name, entry, global words, funcs, blocks, globals
		data = binary.LittleEndian.AppendUint32(data, v)
	}
	if len(data) != 29 {
		t.Fatalf("container is %d bytes, want 29", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadContainer) {
		t.Fatalf("Decode of a global count the container cannot hold: %v, want ErrBadContainer", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("Decode allocated %d bytes before failing, want at most 64 KiB", got)
	}
}

// TestDecodeBoundsOpCount hands Decode a container whose one block claims
// 2^24 operations, the most the count check lets through, and ends there.
// Decode sizes each block's op slice up front, so it must size it from the
// bytes left, not from the claim: an op slice sized from it would take
// 256 MiB.
func TestDecodeBoundsOpCount(t *testing.T) {
	le := binary.LittleEndian
	data := append([]byte{}, containerMagic[:]...)
	data = append(data, byte(Conventional))
	for _, v := range []uint32{0, 0, 0, 1} { // name, entry, global words, funcs
		data = le.AppendUint32(data, v)
	}
	data = append(le.AppendUint32(le.AppendUint32(le.AppendUint32(le.AppendUint32(data, 0), 0), 0), 0), 0) // the function
	data = le.AppendUint32(data, 1)                                                                        // blocks
	data = append(le.AppendUint32(le.AppendUint32(data, 0), 0), 0, 0, 0)                                   // func, cont, flags
	data = le.AppendUint32(le.AppendUint32(data, 0), 1<<24)                                                // successors, ops
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadContainer) {
		t.Fatalf("Decode of an op count the container cannot hold: %v, want ErrBadContainer", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("Decode allocated %d bytes before failing, want at most 64 KiB", got)
	}
}

// TestDecodeRejectsWhatEncodeCannotWrite covers the inputs Decode would
// otherwise accept but Encode, Layout or the emulator cannot use: branch
// targets beyond the encodable range, and blocks of a function the
// container does not have.
func TestDecodeRejectsWhatEncodeCannotWrite(t *testing.T) {
	for _, w := range []uint32{
		uint32(FAULT)<<26 | maxBlockTarget>>1,
		uint32(JMP)<<26 | maxBlockTarget,
	} {
		if op, err := DecodeOp(w); !errors.Is(err, ErrBadContainer) {
			t.Errorf("DecodeOp(%#x) = %+v, %v; want ErrBadContainer, since EncodeOp rejects it", w, op, err)
		}
	}
	p := testProgram(t)
	p.Blocks[1].Func = FuncID(len(p.Funcs))
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); !errors.Is(err, ErrBadContainer) {
		t.Errorf("Decode of a block of a missing function: %v, want ErrBadContainer", err)
	}
}

// Property: for any encodable op word produced from a valid op, the encoded
// word's top 6 bits equal the opcode.
func TestQuickOpcodeFieldStable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := genOp(r)
		w, err := EncodeOp(&op)
		if err != nil {
			return false
		}
		return Opcode(w>>26) == op.Opcode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
