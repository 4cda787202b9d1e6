package uarch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bsisa/internal/backend"
	"bsisa/internal/isa"
)

// Predecoded-op-table codec: the payload of the binary trace format's
// optional aux section (emu/tracebin.go). Serializing the flattened tables
// lets a persistent trace store hand a restarted daemon both the committed
// stream and the sweep engines' predecode in one read, skipping the flatten
// as well as the recording. The blob is framed by the trace file's checksum,
// so this codec only needs structural validation: the decoded tables must
// belong to the supplied program, and any mismatch (or truncation) fails
// with ErrBadPredecode rather than yielding tables that disagree with a
// fresh Predecode.
//
// Layout: version u8 · issue width, block count (uvarint) · per block a
// presence byte and, when present, addr/size/op count (uvarint) followed by
// the raw 8-byte laneOps. The op count is the table's: a fused pair is one
// op. Everything else a table entry holds — the architectural op count,
// fetch cycles, the serialization and memory flags — is derived from the
// program on decode, exactly as flatten derives it.

// ErrBadPredecode is wrapped by every DecodePredecoded failure.
var ErrBadPredecode = errors.New("uarch: bad predecode encoding")

// Version 2: the laneOp register encoding became branchless — three
// RegZero-padded read slots (no read count) and sink-padded write slots.
// Version-1 blobs fail decode and rebuild through the normal quarantine
// path. Fused tables share version 2: no fused blob predates the fused op
// encoding, and a blob whose op counts disagree with the program's fusion
// pairs fails decode like any stale layout.
const predecodeVersion = 2

// EncodeBytes serializes the predecoded tables.
func (p *Predecoded) EncodeBytes() []byte {
	buf := make([]byte, 0, int(p.Footprint()))
	buf = append(buf, predecodeVersion)
	buf = binary.AppendUvarint(buf, uint64(p.issueWidth))
	buf = binary.AppendUvarint(buf, uint64(len(p.lp)))
	for i := range p.lp {
		lb := &p.lp[i]
		if lb.ops == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(lb.addr))
		buf = binary.AppendUvarint(buf, uint64(lb.size))
		buf = binary.AppendUvarint(buf, uint64(len(lb.ops)))
		for _, op := range lb.ops {
			// The packed word's little-endian bytes are exactly the wire
			// order: r0, r1, r2, w1, w2, flags, lat, 0.
			buf = binary.LittleEndian.AppendUint64(buf, uint64(op))
		}
	}
	return buf
}

// DecodePredecoded reconstructs predecoded tables for prog from one encoded
// blob. The block structure is validated against prog — block count,
// presence, layout address/size, and the op count flatten builds for the
// program's kind must all match — so a blob written for a different program
// (or a stale layout) decodes to an error. The returned tables are exactly
// what Predecode(prog, issueWidth) builds.
func DecodePredecoded(data []byte, prog *isa.Program) (*Predecoded, error) {
	if prog == nil {
		return nil, fmt.Errorf("%w: nil program", ErrBadPredecode)
	}
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: empty blob", ErrBadPredecode)
	}
	if data[0] != predecodeVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadPredecode, data[0], predecodeVersion)
	}
	pos := 1
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrBadPredecode, pos)
		}
		pos += n
		return v, nil
	}
	iw, err := uvarint()
	if err != nil {
		return nil, err
	}
	if iw == 0 || iw > 1024 {
		return nil, fmt.Errorf("%w: issue width %d", ErrBadPredecode, iw)
	}
	issueWidth := int(iw)
	numBlocks, err := uvarint()
	if err != nil {
		return nil, err
	}
	if numBlocks != uint64(len(prog.Blocks)) {
		return nil, fmt.Errorf("%w: tables cover %d blocks, program has %d", ErrBadPredecode, numBlocks, len(prog.Blocks))
	}
	pol := backend.For(prog.Kind).Policy()
	lp := make([]laneBlock, len(prog.Blocks))
	var pairs []int
	maxOps := 0
	for id := range lp {
		if pos >= len(data) {
			return nil, fmt.Errorf("%w: truncated at block %d", ErrBadPredecode, id)
		}
		present := data[pos]
		pos++
		b := prog.Blocks[id]
		if present == 0 {
			if b != nil {
				return nil, fmt.Errorf("%w: B%d absent from the tables but present in the program", ErrBadPredecode, id)
			}
			continue
		}
		if present != 1 {
			return nil, fmt.Errorf("%w: B%d presence byte %d", ErrBadPredecode, id, present)
		}
		if b == nil {
			return nil, fmt.Errorf("%w: B%d present in the tables but absent from the program", ErrBadPredecode, id)
		}
		addr, err := uvarint()
		if err != nil {
			return nil, err
		}
		size, err := uvarint()
		if err != nil {
			return nil, err
		}
		nOps, err := uvarint()
		if err != nil {
			return nil, err
		}
		winOps := len(b.Ops)
		if pol.FuseMacroOps {
			pairs = fusePairs(pairs[:0], b.Ops)
			winOps -= len(pairs)
		}
		if addr != uint64(b.Addr) || size != uint64(b.Size) || nOps != uint64(winOps) {
			return nil, fmt.Errorf("%w: B%d is %d ops at %d+%d in the tables, %d ops at %d+%d in the program",
				ErrBadPredecode, id, nOps, addr, size, winOps, b.Addr, b.Size)
		}
		lb := &lp[id]
		setBlockMeta(lb, b, pol, issueWidth)
		maxOps = max(maxOps, winOps)
		if pos+int(nOps)*8 > len(data) {
			return nil, fmt.Errorf("%w: truncated op table for B%d", ErrBadPredecode, id)
		}
		// Every engine reads one load outcome per load-flagged op from a
		// stream holding one per committed load, so the flags must count
		// the block's loads exactly.
		loads := 0
		for i := range b.Ops {
			if b.Ops[i].Opcode == isa.LD {
				loads++
			}
		}
		lb.ops = make([]laneOp, nOps)
		for j := range lb.ops {
			v := binary.LittleEndian.Uint64(data[pos:])
			pos += 8
			v &= 1<<56 - 1 // byte 7 is padding
			r0, r1, r2 := uint8(v), uint8(v>>8), uint8(v>>16)
			w1, w2 := uint8(v>>24), uint8(v>>32)
			if r0 >= isa.NumRegs || r1 >= isa.NumRegs || r2 >= isa.NumRegs {
				return nil, fmt.Errorf("%w: B%d op %d reads register beyond the file", ErrBadPredecode, id, j)
			}
			if w1 == uint8(isa.RegZero) || w1 > laneRegSink ||
				w2 == uint8(isa.RegZero) || w2 > laneRegSink {
				return nil, fmt.Errorf("%w: B%d op %d writes register beyond the file", ErrBadPredecode, id, j)
			}
			if uint8(v>>40)&laneLD != 0 {
				loads--
			}
			lb.ops[j] = laneOp(v)
		}
		if loads != 0 {
			return nil, fmt.Errorf("%w: B%d load flags disagree with the program's loads", ErrBadPredecode, id)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPredecode, len(data)-pos)
	}
	return &Predecoded{prog: prog, issueWidth: issueWidth, lp: lp, noMiss: noMissBits(maxOps)}, nil
}
