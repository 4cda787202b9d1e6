package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Operation encoding. Every operation packs into a 32-bit word, mirroring the
// mid-90s RISC encodings the paper assumes (4 bytes per operation):
//
//	R-format   [opc:6][rd:5][rs1:5][rs2:5][pad:11]          reg-reg ops
//	I-format   [opc:6][rd:5][rs1:5][imm:16]                 reg-imm ops, LD
//	S-format   [opc:6][rs1:5][rs2:5][imm:16]                ST
//	U-format   [opc:6][rd:5][imm:16][pad:5]                 LUI
//	B-format   [opc:6][rs1:5][target:21]                    BR/TRAP/JMP/CALL
//	F-format   [opc:6][rs1:5][nz:1][target:20]              FAULT
//
// Block targets are absolute block indices (the linker of a real machine
// would turn them into addresses; keeping them symbolic makes layout
// idempotent). The format limits programs to 2^20 blocks.
//
// The container format produced by Encode additionally stores each block's
// successor list explicitly. On a real machine those successors are
// recoverable from whole-program analysis (the trap's explicit targets plus
// the fault targets of the variant blocks themselves), so the cache-resident
// footprint — what EncodedSize and the icache model count — is only
// HeaderBytes plus 4 bytes per operation.

const (
	maxBlockTarget = 1 << 20
	immMin         = -(1 << 15)
	immMax         = 1<<15 - 1
)

// EncodeOp packs an operation into its 32-bit encoding.
func EncodeOp(op *Op) (uint32, error) {
	if op.Opcode >= numOpcodes {
		return 0, fmt.Errorf("isa: invalid opcode %d", op.Opcode)
	}
	info := &opcodeInfo[op.Opcode]
	w := uint32(op.Opcode) << 26
	if op.Opcode == FAULT {
		if op.Target < 0 || op.Target >= maxBlockTarget>>1 {
			return 0, fmt.Errorf("isa: fault target B%d out of encodable range", op.Target)
		}
		w |= uint32(op.Rs1) << 21
		if op.FaultNZ {
			w |= 1 << 20
		}
		w |= uint32(op.Target) & (1<<20 - 1)
		return w, nil
	}
	if info.hasTarget {
		if op.Target < 0 || op.Target >= maxBlockTarget {
			return 0, fmt.Errorf("isa: %s target B%d out of encodable range", op.Opcode, op.Target)
		}
		w |= uint32(op.Rs1) << 21
		w |= uint32(op.Target) & (1<<21 - 1)
		return w, nil
	}
	if op.Opcode == LUI {
		if op.Imm < 0 || op.Imm > 0xFFFF {
			return 0, fmt.Errorf("isa: lui immediate %d out of range", op.Imm)
		}
		w |= uint32(op.Rd) << 21
		w |= uint32(op.Imm) << 5
		return w, nil
	}
	if op.Opcode == ST {
		if op.Imm < immMin || op.Imm > immMax {
			return 0, fmt.Errorf("isa: st immediate %d out of range", op.Imm)
		}
		w |= uint32(op.Rs1) << 21
		w |= uint32(op.Rs2) << 16
		w |= uint32(uint16(op.Imm))
		return w, nil
	}
	if info.hasImm {
		// Logical immediates zero-extend (MIPS convention): their encodable
		// range is 0..65535. Arithmetic immediates sign-extend.
		if op.Opcode == ANDI || op.Opcode == ORI || op.Opcode == XORI {
			if op.Imm < 0 || op.Imm > 0xFFFF {
				return 0, fmt.Errorf("isa: %s immediate %d out of unsigned range", op.Opcode, op.Imm)
			}
		} else if op.Imm < immMin || op.Imm > immMax {
			return 0, fmt.Errorf("isa: %s immediate %d out of range", op.Opcode, op.Imm)
		}
		w |= uint32(op.Rd) << 21
		w |= uint32(op.Rs1) << 16
		w |= uint32(uint16(op.Imm))
		return w, nil
	}
	w |= uint32(op.Rd) << 21
	w |= uint32(op.Rs1) << 16
	w |= uint32(op.Rs2) << 11
	return w, nil
}

// DecodeOp unpacks a 32-bit encoding.
func DecodeOp(w uint32) (Op, error) {
	opc := Opcode(w >> 26)
	if opc >= numOpcodes {
		return Op{}, fmt.Errorf("isa: invalid opcode %d in word %#x", opc, w)
	}
	info := &opcodeInfo[opc]
	var op Op
	op.Opcode = opc
	switch {
	case opc == FAULT:
		op.Rs1 = Reg(w >> 21 & 31)
		op.FaultNZ = w>>20&1 != 0
		op.Target = BlockID(w & (1<<20 - 1))
		if op.Target >= maxBlockTarget>>1 {
			return Op{}, fmt.Errorf("isa: fault target B%d out of encodable range in word %#x", op.Target, w)
		}
	case info.hasTarget:
		op.Rs1 = Reg(w >> 21 & 31)
		op.Target = BlockID(w & (1<<21 - 1))
		if op.Target >= maxBlockTarget {
			return Op{}, fmt.Errorf("isa: %s target B%d out of encodable range in word %#x", opc, op.Target, w)
		}
	case opc == LUI:
		op.Rd = Reg(w >> 21 & 31)
		op.Imm = int32(w >> 5 & 0xFFFF)
	case opc == ST:
		op.Rs1 = Reg(w >> 21 & 31)
		op.Rs2 = Reg(w >> 16 & 31)
		op.Imm = int32(int16(w & 0xFFFF))
	case info.hasImm:
		op.Rd = Reg(w >> 21 & 31)
		op.Rs1 = Reg(w >> 16 & 31)
		if opc == ANDI || opc == ORI || opc == XORI {
			op.Imm = int32(w & 0xFFFF) // zero-extended
		} else {
			op.Imm = int32(int16(w & 0xFFFF))
		}
	default:
		op.Rd = Reg(w >> 21 & 31)
		op.Rs1 = Reg(w >> 16 & 31)
		op.Rs2 = Reg(w >> 11 & 31)
	}
	// Drop fields the format does not carry so Decode(Encode(x)) is exact.
	if !info.hasRs1 && opc != FAULT && !info.hasTarget {
		op.Rs1 = 0
	}
	return op, nil
}

var containerMagic = [4]byte{'B', 'S', 'A', '1'}

// Encode serializes the program to the container format.
func Encode(p *Program) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(containerMagic[:])
	buf.WriteByte(byte(p.Kind))
	writeString(&buf, p.Name)
	writeU32(&buf, uint32(p.EntryFunc))
	writeU32(&buf, uint32(p.GlobalWords))

	writeU32(&buf, uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		writeString(&buf, f.Name)
		writeU32(&buf, uint32(f.Entry))
		writeU32(&buf, uint32(f.NumArgs))
		writeU32(&buf, uint32(f.FrameSize))
		if f.Library {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}

	writeU32(&buf, uint32(len(p.Blocks)))
	for _, b := range p.Blocks {
		if b == nil {
			writeU32(&buf, 0xFFFF_FFFF)
			continue
		}
		writeU32(&buf, uint32(b.Func))
		writeU32(&buf, uint32(int32(b.Cont)))
		flags := byte(0)
		if b.Library {
			flags |= 1
		}
		buf.WriteByte(flags)
		buf.WriteByte(byte(b.TakenCount))
		buf.WriteByte(byte(b.HistBits))
		writeU32(&buf, uint32(len(b.Succs)))
		for _, s := range b.Succs {
			writeU32(&buf, uint32(s))
		}
		writeU32(&buf, uint32(len(b.Ops)))
		for i := range b.Ops {
			w, err := EncodeOp(&b.Ops[i])
			if err != nil {
				return nil, fmt.Errorf("B%d op %d: %w", b.ID, i, err)
			}
			writeU32(&buf, w)
		}
	}

	writeU32(&buf, uint32(len(p.GlobalOffsets)))
	for _, g := range sortedGlobals(p.GlobalOffsets) {
		writeString(&buf, g.name)
		writeU32(&buf, uint32(g.off))
	}

	writeU32(&buf, uint32(len(p.Rodata)))
	for _, w := range p.Rodata {
		writeU32(&buf, uint32(uint64(w)&0xFFFF_FFFF))
		writeU32(&buf, uint32(uint64(w)>>32))
	}
	return buf.Bytes(), nil
}

type globalEntry struct {
	name string
	off  int32
}

func sortedGlobals(m map[string]int32) []globalEntry {
	out := make([]globalEntry, 0, len(m))
	for k, v := range m {
		out = append(out, globalEntry{k, v})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Decode deserializes a container produced by Encode.
func Decode(data []byte) (*Program, error) {
	r := &reader{data: data}
	var magic [4]byte
	r.bytes(magic[:])
	if magic != containerMagic {
		return nil, fmt.Errorf("isa: bad magic %q", magic)
	}
	p := &Program{}
	p.Kind = Kind(r.u8())
	if p.Kind >= NumKinds {
		return nil, fmt.Errorf("isa: unknown program kind %d", p.Kind)
	}
	p.Name = r.str()
	p.EntryFunc = FuncID(r.u32())
	p.GlobalWords = int32(r.u32())

	nf := int(r.u32())
	if r.err == nil && nf > 1<<20 {
		return nil, fmt.Errorf("isa: implausible function count %d", nf)
	}
	for i := 0; i < nf && r.err == nil; i++ {
		f := &Func{ID: FuncID(i)}
		f.Name = r.str()
		f.Entry = BlockID(r.u32())
		f.NumArgs = int(r.u32())
		f.FrameSize = int32(r.u32())
		f.Library = r.u8() != 0
		p.Funcs = append(p.Funcs, f)
	}

	nb := int(r.u32())
	if r.err == nil && nb > maxBlockTarget {
		return nil, fmt.Errorf("isa: implausible block count %d", nb)
	}
	for i := 0; i < nb && r.err == nil; i++ {
		fid := r.u32()
		if fid == 0xFFFF_FFFF {
			p.Blocks = append(p.Blocks, nil)
			continue
		}
		if r.err == nil && fid >= uint32(len(p.Funcs)) {
			return nil, fmt.Errorf("isa: block %d belongs to missing function %d", i, fid)
		}
		b := &Block{ID: BlockID(i), Func: FuncID(fid)}
		b.Cont = BlockID(int32(r.u32()))
		flags := r.u8()
		b.Library = flags&1 != 0
		b.TakenCount = int(r.u8())
		b.HistBits = int(r.u8())
		ns := int(r.u32())
		if r.err == nil && ns > maxBlockTarget {
			return nil, fmt.Errorf("isa: implausible successor count %d", ns)
		}
		for j := 0; j < ns && r.err == nil; j++ {
			b.Succs = append(b.Succs, BlockID(r.u32()))
		}
		no := int(r.u32())
		if r.err == nil && no > 1<<24 {
			return nil, fmt.Errorf("isa: implausible op count %d", no)
		}
		for j := 0; j < no && r.err == nil; j++ {
			op, err := DecodeOp(r.u32())
			if err != nil {
				return nil, err
			}
			b.Ops = append(b.Ops, op)
		}
		p.Blocks = append(p.Blocks, b)
	}

	ng := int(r.u32())
	// Every global takes at least 8 bytes (name length and offset), so a
	// count the remaining bytes cannot hold is rejected before the map is
	// sized from it.
	if r.err == nil && ng > (len(r.data)-r.pos)/8 {
		return nil, fmt.Errorf("isa: implausible global count %d", ng)
	}
	if r.err == nil && ng > 0 {
		p.GlobalOffsets = make(map[string]int32, ng)
		for i := 0; i < ng && r.err == nil; i++ {
			name := r.str()
			off := int32(r.u32())
			p.GlobalOffsets[name] = off
		}
	}
	nr := int(r.u32())
	if r.err == nil && nr > 1<<24 {
		return nil, fmt.Errorf("isa: implausible rodata size %d", nr)
	}
	for i := 0; i < nr && r.err == nil; i++ {
		lo := uint64(r.u32())
		hi := uint64(r.u32())
		p.Rodata = append(p.Rodata, int64(hi<<32|lo))
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeString(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.pos+len(dst) > len(r.data) {
		r.err = fmt.Errorf("isa: truncated container at offset %d", r.pos)
		return
	}
	copy(dst, r.data[r.pos:])
	r.pos += len(dst)
}

func (r *reader) u8() byte {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > len(r.data)-r.pos {
		r.err = fmt.Errorf("isa: truncated string at offset %d", r.pos)
		return ""
	}
	b := make([]byte, n)
	r.bytes(b)
	return string(b)
}
