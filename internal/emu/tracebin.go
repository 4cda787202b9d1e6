package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"bsisa/internal/isa"
)

// Binary trace format ("BSTR"). A recorded committed-block trace serializes
// to a checksummed byte stream so a persistent store can amortize one
// recording across every future replay — the same economics the paper claims
// for block enlargement, applied to the simulator's own artifacts.
//
// The one layout is version 3 — fixed-stride columns, built for mmap:
//
//	header   64 bytes: magic "BSTR" · version u8 · flags u8 · reserved ×2 ·
//	         emulation budget i64 · event count u64 · block count u64 ·
//	         memory-address count u64 · body offset u64 (= 4096) ·
//	         tail offset u64 · reserved u32 · CRC-32C of bytes [0,60)
//	body     at the page-aligned body offset, five little-endian fixed-width
//	         column arrays, each 64-byte aligned, padding zeroed:
//	         blocks (i32/event) · succIdx (i16/event) · taken (u8/event) ·
//	         mem (u32/address) · memCnt (u32/block)
//	tail     result varints · optional aux sections (flagAux) · one CRC-32C
//	         per column (5 × u32) · CRC-32C of the tail itself
//
//	A trace store's file also carries the program the trace was recorded
//	from: its isa.Encode image is the aux section tagged ProgramTag
//	(ProgramSection), so a restarted process decodes the program from the
//	file instead of compiling it again.
//
//	The columns are bit-for-bit the flat slices Record builds and Replay
//	walks, so decoding is pointer-and-stride bookkeeping: on a
//	little-endian host the returned Trace aliases the input buffer directly
//	(Borrowed reports this), and a memory-mapped file replays with zero
//	decode and zero steady-state allocation. Every byte of the file is
//	covered by a checksum or an explicit must-be-zero padding rule.
//
// Any other version byte — including the varint layouts (1 and 2) older
// releases wrote — is a bad trace: a store quarantines such a file and
// re-records it like any corrupt one.
//
// Aux sections are tagged payloads with strictly increasing tags. Tag 0
// (ProgramTag) holds a program image; the rest are opaque here, and the
// store puts one predecoded-op-table blob (uarch) per issue width there,
// tagged by the width. Encoding is deterministic, so Encode∘Decode∘Encode is
// byte-identical. Every decode failure — bad magic, unknown version,
// checksum mismatch, truncation, a bad program section, or a stream that
// does not match the program — wraps ErrBadTrace; corrupt bytes never panic
// and never yield a partially filled trace.

// ErrBadTrace is wrapped by every DecodeTrace failure, so stores classify
// corrupt-vs-mismatched files with errors.Is instead of parsing messages.
var ErrBadTrace = errors.New("emu: bad trace encoding")

const (
	traceMagic    = "BSTR"
	traceVersion3 = 3

	// flagAux marks the presence of the optional aux sections.
	flagAux = 1 << 0

	// traceTrailerLen is the trailing CRC-32C over the tail.
	traceTrailerLen = 4
)

// ProgramTag is the aux tag of the section holding the program a trace was
// recorded from (ProgramSection). It is the lowest tag, below every issue
// width the store tags predecode sections with.
const ProgramTag = 0

// ProgramSection returns the ProgramTag section for prog: its isa.Encode
// image, which DecodeTrace reads back when it is given no program.
func ProgramSection(prog *isa.Program) (AuxSection, error) {
	image, err := isa.Encode(prog)
	if err != nil {
		return AuxSection{}, err
	}
	return AuxSection{Tag: ProgramTag, Data: image}, nil
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AuxSection is one tagged payload riding along with an encoded trace. The
// trace store writes the program under ProgramTag and keys
// predecoded-op-table blobs by issue width (Tag = width), one section per
// width, so attaching a new width never clobbers another width's table.
type AuxSection struct {
	Tag  uint64
	Data []byte
}

// appendTraceResult appends the tail's result encoding: a presence uvarint,
// then stats, output, and return value as varints.
func appendTraceResult(buf []byte, res *Result) []byte {
	if res == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, 1)
	st := res.Stats
	for _, v := range []int64{st.Ops, st.Blocks, st.Loads, st.Stores, st.Branches, st.Taken, st.FaultRetries} {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Output)))
	for _, v := range res.Output {
		buf = binary.AppendVarint(buf, v)
	}
	return binary.AppendVarint(buf, res.ReturnValue)
}

// appendTraceAux appends the tail's aux-section encoding: a section count,
// then per section tag · length · bytes.
func appendTraceAux(buf []byte, aux []AuxSection) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(aux)))
	for _, s := range aux {
		buf = binary.AppendUvarint(buf, s.Tag)
		buf = binary.AppendUvarint(buf, uint64(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	return buf
}

// traceReader walks an encoded tail with bounds-checked varint reads.
type traceReader struct {
	data []byte
	pos  int
}

func (r *traceReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrBadTrace, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *traceReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrBadTrace, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *traceReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated section at offset %d", ErrBadTrace, r.pos)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// readResult parses the result encoding. Aux data is always copied out of
// the input buffer, never aliased, so results and aux sections stay valid
// after a mapped buffer is unmapped.
func (r *traceReader) readResult() (*Result, error) {
	present, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if present > 1 {
		return nil, fmt.Errorf("%w: result-presence flag %d", ErrBadTrace, present)
	}
	if present == 0 {
		return nil, nil
	}
	res := &Result{}
	for _, dst := range []*int64{
		&res.Stats.Ops, &res.Stats.Blocks, &res.Stats.Loads, &res.Stats.Stores,
		&res.Stats.Branches, &res.Stats.Taken, &res.Stats.FaultRetries,
	} {
		if *dst, err = r.varint(); err != nil {
			return nil, err
		}
	}
	nOut, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nOut > uint64(len(r.data)) {
		return nil, fmt.Errorf("%w: output length %d exceeds the encoding's capacity", ErrBadTrace, nOut)
	}
	res.Output = make([]int64, nOut)
	for i := range res.Output {
		if res.Output[i], err = r.varint(); err != nil {
			return nil, err
		}
	}
	if res.ReturnValue, err = r.varint(); err != nil {
		return nil, err
	}
	return res, nil
}

// readAux parses the aux-section encoding (canonical form: a nonzero
// count, strictly increasing tags). Section data is copied, never aliased.
func (r *traceReader) readAux() ([]AuxSection, error) {
	cnt, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// The flag without sections is non-canonical, and every section costs
	// at least two body bytes, so both bounds reject malformed counts.
	if cnt == 0 || cnt > uint64(len(r.data)) {
		return nil, fmt.Errorf("%w: aux section count %d", ErrBadTrace, cnt)
	}
	aux := make([]AuxSection, 0, cnt)
	prevTag := uint64(0)
	for i := uint64(0); i < cnt; i++ {
		tag, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if i > 0 && tag <= prevTag {
			return nil, fmt.Errorf("%w: aux tag %d after %d (tags must strictly increase)",
				ErrBadTrace, tag, prevTag)
		}
		prevTag = tag
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes(int(n))
		if err != nil {
			return nil, err
		}
		aux = append(aux, AuxSection{Tag: tag, Data: append([]byte(nil), raw...)})
	}
	return aux, nil
}

// DecodeTrace reconstructs a trace recorded from prog out of one encoded
// buffer, returning the aux sections in tag order (nil when absent). The
// decoded trace replays field-for-field identically to the trace EncodeBytes
// was called on. The stream is validated against prog — block IDs, successor
// indices, and static memory-operation counts must all match — so a file
// keyed to the wrong program decodes to an error, never to a wrong answer.
//
// A nil prog reads the program from the buffer instead: the ProgramTag
// section is decoded (isa.Decode), laid out (Layout) and validated
// (Validate), and the stream is then validated against it as above. A
// missing or bad section fails like any corrupt byte. A non-nil prog is
// used as given; the section, if any, is returned with the others
// undecoded.
//
// On a little-endian host with an 8-byte-aligned buffer the trace decodes by
// aliasing: its event columns point into data (Borrowed reports true), so
// data must stay immutable and mapped for the trace's lifetime. Misaligned
// buffers and big-endian hosts decode into fresh heap slices.
func DecodeTrace(data []byte, prog *isa.Program) (*Trace, []AuxSection, error) {
	if len(data) < v3HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrBadTrace, len(data))
	}
	if string(data[:4]) != traceMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, data[:4])
	}
	if data[4] != traceVersion3 {
		return nil, nil, fmt.Errorf("%w: format version %d, want %d", ErrBadTrace, data[4], traceVersion3)
	}
	return decodeTraceV3(data, prog)
}

// sectionProgram decodes, lays out and validates the program image in the
// ProgramTag section. Tags strictly increase, so that section is the first
// when present.
func sectionProgram(aux []AuxSection) (*isa.Program, error) {
	if len(aux) == 0 || aux[0].Tag != ProgramTag {
		return nil, fmt.Errorf("%w: no program section", ErrBadTrace)
	}
	prog, err := isa.Decode(aux[0].Data)
	if err != nil {
		return nil, fmt.Errorf("%w: program section: %w", ErrBadTrace, err)
	}
	prog.Layout()
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("%w: program section: %w", ErrBadTrace, err)
	}
	return prog, nil
}

// staticMemCount is the program-constant number of LD/ST operations in b
// (0 for a nil block slot).
func staticMemCount(b *isa.Block) int32 {
	if b == nil {
		return 0
	}
	n := int32(0)
	for i := range b.Ops {
		if op := b.Ops[i].Opcode; op == isa.LD || op == isa.ST {
			n++
		}
	}
	return n
}
