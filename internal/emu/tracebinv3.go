package emu

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"unsafe"

	"bsisa/internal/isa"
)

// BSTR v3 fixed-stride layout (see the format overview in tracebin.go). The
// design constraints, in order:
//
//   - The body columns are bit-for-bit the flat slices Replay walks, so a
//     validated buffer needs no per-event work at all: blocks are i32,
//     succIdx i16, taken one byte per event, mem u32, memCnt u32, all
//     little-endian. Aliasing them is pure pointer/stride bookkeeping.
//   - The body starts at a fixed 4096-byte offset and every column starts on
//     a 64-byte boundary, so a page-aligned mapping (mmap always is) makes
//     every column alignment-safe for its element type.
//   - Every byte is accounted for: the header checks itself, each column
//     carries its own CRC-32C (a flipped bit names the section it hit), the
//     tail carries one over itself, and every padding byte must be zero.
//     Zero padding also keeps the encoding deterministic, so
//     Encode∘Decode∘Encode stays byte-identical.
const (
	v3HeaderLen = 64
	v3BodyOff   = 4096
	v3ColAlign  = 64
	v3NumCols   = 5

	// v3MinTailLen bounds the smallest legal tail: a result-absent uvarint,
	// five column CRCs, and the tail CRC.
	v3MinTailLen = 1 + 4*v3NumCols + traceTrailerLen
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the precondition for aliasing v3 columns in place.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// v3Layout holds the computed byte offsets of one v3 encoding.
type v3Layout struct {
	numEvents, numBlocks, memTotal       int
	blocksOff, succOff, takenOff, memOff int
	memCntOff, tailOff                   int
}

func v3Align(off uint64) uint64 { return (off + v3ColAlign - 1) &^ uint64(v3ColAlign-1) }

// v3LayoutFor computes the column offsets for the given stream shape. The
// sizeCap guards decode-side arithmetic: counts come from the (checksummed
// but untrusted) header, so every offset is computed in uint64 and rejected
// as soon as it exceeds the buffer. Encoding passes a cap high enough to
// never trip.
func v3LayoutFor(numEvents, numBlocks, memTotal, sizeCap uint64) (v3Layout, error) {
	off := uint64(v3BodyOff)
	l := v3Layout{numEvents: int(numEvents), numBlocks: int(numBlocks), memTotal: int(memTotal)}
	for _, col := range []struct {
		dst   *int
		width uint64
		n     uint64
	}{
		{&l.blocksOff, 4, numEvents},
		{&l.succOff, 2, numEvents},
		{&l.takenOff, 1, numEvents},
		{&l.memOff, 4, memTotal},
		{&l.memCntOff, 4, numBlocks},
	} {
		if off > sizeCap || col.n > sizeCap || col.n*col.width > sizeCap-off {
			return v3Layout{}, fmt.Errorf("%w: v3 column sizes exceed the encoding's capacity", ErrBadTrace)
		}
		*col.dst = int(off)
		off = v3Align(off + col.n*col.width)
	}
	// The last column is not padded: the tail begins right after it.
	l.tailOff = l.memCntOff + 4*l.numBlocks
	return l, nil
}

// columns returns the five column byte ranges of data under this layout, in
// encoding order (blocks, succIdx, taken, mem, memCnt).
func (l v3Layout) columns(data []byte) [v3NumCols][]byte {
	return [v3NumCols][]byte{
		data[l.blocksOff : l.blocksOff+4*l.numEvents],
		data[l.succOff : l.succOff+2*l.numEvents],
		data[l.takenOff : l.takenOff+l.numEvents],
		data[l.memOff : l.memOff+4*l.memTotal],
		data[l.memCntOff : l.memCntOff+4*l.numBlocks],
	}
}

// Encode writes the trace (and any aux sections) to w in the fixed-stride
// layout and returns the number of bytes written. It streams the file from
// the trace's columns through a staging buffer of at most encodeStage
// bytes, so no image of the file is built in memory. Section tags must be
// strictly increasing — the canonical form DecodeTrace enforces;
// Store.AttachAux maintains it.
func (t *Trace) Encode(w io.Writer, aux []AuxSection) (int64, error) {
	l, result, size := t.encodedLayout(aux)
	e := &v3Encoder{w: w, stage: make([]byte, 0, min(size, encodeStage)), open: -1}
	t.encode(e, l, result, aux)
	e.flush()
	return e.written, e.err
}

// EncodeBytes is Encode into one fresh buffer of exactly the file's size.
func (t *Trace) EncodeBytes(aux []AuxSection) []byte {
	l, result, size := t.encodedLayout(aux)
	e := &v3Encoder{stage: make([]byte, 0, size), open: -1}
	t.encode(e, l, result, aux)
	return e.stage
}

// encodeStage caps Encode's staging buffer.
const encodeStage = 64 << 10

// encodedLayout returns the trace's column layout, its result's tail
// encoding, and the size of the whole file with the given aux sections.
func (t *Trace) encodedLayout(aux []AuxSection) (v3Layout, []byte, int) {
	l, err := v3LayoutFor(uint64(len(t.blocks)), uint64(len(t.memCnt)), uint64(len(t.mem)), 1<<62)
	if err != nil {
		// Unreachable for any trace that fits in memory.
		panic(err)
	}
	result := appendTraceResult(nil, t.result)
	size := l.tailOff + len(result) + 4*v3NumCols + traceTrailerLen
	if len(aux) > 0 {
		size += uvarintLen(uint64(len(aux)))
		for _, s := range aux {
			size += uvarintLen(s.Tag) + uvarintLen(uint64(len(s.Data))) + len(s.Data)
		}
	}
	return l, result, size
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// encode emits the file: header, the five columns with their zero
// padding, then the tail.
func (t *Trace) encode(e *v3Encoder, l v3Layout, result []byte, aux []AuxSection) {
	le := binary.LittleEndian
	h := e.next(v3HeaderLen)
	clear(h)
	copy(h, traceMagic)
	h[4] = traceVersion3
	if len(aux) > 0 {
		h[5] = flagAux
	}
	le.PutUint64(h[8:], uint64(t.cfg.MaxOps))
	le.PutUint64(h[16:], uint64(len(t.blocks)))
	le.PutUint64(h[24:], uint64(len(t.memCnt)))
	le.PutUint64(h[32:], uint64(len(t.mem)))
	le.PutUint64(h[40:], v3BodyOff)
	le.PutUint64(h[48:], uint64(l.tailOff))
	le.PutUint32(h[60:], crc32.Checksum(h[:60], crcTable))

	var crcs [v3NumCols]uint32
	e.begin(l.blocksOff)
	putColumn(e, t.blocks)
	crcs[0] = e.end()
	e.begin(l.succOff)
	putColumn(e, t.succIdx)
	crcs[1] = e.end()
	e.begin(l.takenOff)
	// A bool is one byte holding 0 or 1, which is the taken column's
	// encoding; the decoder aliases the column the same way.
	e.raw(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.taken))), len(t.taken)))
	crcs[2] = e.end()
	e.begin(l.memOff)
	putColumn(e, t.mem)
	crcs[3] = e.end()
	e.begin(l.memCntOff)
	putColumn(e, t.memCnt)
	crcs[4] = e.end()

	// The tail: result, aux sections, the column CRCs, and the CRC of all
	// three.
	e.begin(l.tailOff)
	e.raw(result)
	if len(aux) > 0 {
		e.uvarint(uint64(len(aux)))
		for _, s := range aux {
			e.uvarint(s.Tag)
			e.uvarint(uint64(len(s.Data)))
			e.raw(s.Data)
		}
	}
	for _, c := range crcs {
		le.PutUint32(e.next(4), c)
	}
	tail := e.end()
	le.PutUint32(e.next(4), tail)
}

// v3Encoder stages the bytes of one file and writes them to w whenever the
// stage fills. Without a w, the stage is the whole file: EncodeBytes sizes
// it exactly, so it never fills. CRC-32Cs are folded over the staged bytes
// of one section at a time — a column, or the tail — between begin and
// end.
type v3Encoder struct {
	w       io.Writer
	stage   []byte
	written int64 // bytes handed to w
	err     error // first error from w

	crc  uint32 // running CRC-32C of the open section
	open int    // stage offset the CRC has folded up to; -1 with no section open
}

// pos is the file offset of the next byte.
func (e *v3Encoder) pos() int { return int(e.written) + len(e.stage) }

// fold adds the open section's staged bytes to its CRC.
func (e *v3Encoder) fold() {
	if e.open >= 0 {
		e.crc = crc32.Update(e.crc, crcTable, e.stage[e.open:])
		e.open = len(e.stage)
	}
}

// zeroPad is the longest padding a file holds, between header and body.
var zeroPad [v3BodyOff - v3HeaderLen]byte

// begin stages zero padding up to file offset off and opens a section there.
func (e *v3Encoder) begin(off int) {
	e.raw(zeroPad[:off-e.pos()])
	e.crc, e.open = 0, len(e.stage)
}

// end closes the open section and returns its CRC-32C.
func (e *v3Encoder) end() uint32 {
	e.fold()
	e.open = -1
	return e.crc
}

// flush writes the stage to w and empties it. After a write error the
// stage is dropped unwritten; Encode returns that error.
func (e *v3Encoder) flush() {
	if e.w == nil {
		panic("emu: trace encoding outgrew its exact-size buffer")
	}
	e.fold()
	if e.err == nil && len(e.stage) > 0 {
		n, err := e.w.Write(e.stage)
		if err == nil && n < len(e.stage) {
			err = io.ErrShortWrite
		}
		e.written += int64(n)
		e.err = err
	}
	e.stage = e.stage[:0]
	if e.open >= 0 {
		e.open = 0
	}
}

// putColumn stages col's little-endian encoding, a stage-full at a time.
func putColumn[T isa.BlockID | int16 | int32 | uint32](e *v3Encoder, col []T) {
	width := int(unsafe.Sizeof(T(0)))
	for len(col) > 0 {
		if cap(e.stage)-len(e.stage) < width {
			e.flush()
		}
		free := e.stage[len(e.stage):cap(e.stage)]
		n := min(len(col), len(free)/width)
		if width == 2 {
			for i, v := range col[:n] {
				binary.LittleEndian.PutUint16(free[2*i:], uint16(v))
			}
		} else {
			for i, v := range col[:n] {
				binary.LittleEndian.PutUint32(free[4*i:], uint32(v))
			}
		}
		e.stage = e.stage[:len(e.stage)+width*n]
		col = col[n:]
	}
}

// next returns the stage space for the next k bytes, k ≤ encodeStage. The
// caller writes every one of them.
func (e *v3Encoder) next(k int) []byte {
	if len(e.stage)+k > cap(e.stage) {
		e.flush()
	}
	n := len(e.stage)
	e.stage = e.stage[:n+k]
	return e.stage[n:]
}

// raw stages p.
func (e *v3Encoder) raw(p []byte) {
	for len(p) > 0 {
		if len(e.stage) == cap(e.stage) {
			e.flush()
		}
		n := copy(e.stage[len(e.stage):cap(e.stage)], p)
		e.stage = e.stage[:len(e.stage)+n]
		p = p[n:]
	}
}

func (e *v3Encoder) uvarint(x uint64) {
	var b [binary.MaxVarintLen64]byte
	e.raw(b[:binary.PutUvarint(b[:], x)])
}

// decodeTraceV3 validates a fixed-stride buffer whose magic and version
// DecodeTrace has checked, and builds a Trace over it (reading the program
// from its section when prog is nil). On a little-endian host with an
// 8-byte-aligned buffer the trace's columns and the aux sections' data
// alias data directly (the zero-copy path every mmap hits — mappings are
// page-aligned); otherwise both are copied out.
func decodeTraceV3(data []byte, prog *isa.Program) (*Trace, []AuxSection, error) {
	le := binary.LittleEndian
	if got, want := crc32.Checksum(data[:60], crcTable), le.Uint32(data[60:]); got != want {
		return nil, nil, fmt.Errorf("%w: header checksum %08x, header says %08x", ErrBadTrace, got, want)
	}
	flags := data[5]
	if flags&^byte(flagAux) != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#02x", ErrBadTrace, flags)
	}
	maxOps := int64(le.Uint64(data[8:]))
	numEvents := le.Uint64(data[16:])
	numBlocks := le.Uint64(data[24:])
	memTotal := le.Uint64(data[32:])
	if bodyOff := le.Uint64(data[40:]); bodyOff != v3BodyOff {
		return nil, nil, fmt.Errorf("%w: non-canonical body offset %d", ErrBadTrace, bodyOff)
	}
	l, err := v3LayoutFor(numEvents, numBlocks, memTotal, uint64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	if tailOff := le.Uint64(data[48:]); tailOff != uint64(l.tailOff) {
		return nil, nil, fmt.Errorf("%w: tail offset %d, layout says %d", ErrBadTrace, tailOff, l.tailOff)
	}
	if len(data) < l.tailOff+v3MinTailLen {
		return nil, nil, fmt.Errorf("%w: %d-byte tail is shorter than the minimum %d", ErrBadTrace, len(data)-l.tailOff, v3MinTailLen)
	}

	// Checksums: the tail CRC covers result, aux, and the column CRC list;
	// each column CRC covers exactly its column's bytes.
	crcOff := len(data) - traceTrailerLen - 4*v3NumCols
	if got, want := crc32.Checksum(data[l.tailOff:len(data)-traceTrailerLen], crcTable), le.Uint32(data[len(data)-traceTrailerLen:]); got != want {
		return nil, nil, fmt.Errorf("%w: tail checksum %08x, trailer says %08x", ErrBadTrace, got, want)
	}
	for i, col := range l.columns(data) {
		if got, want := crc32.Checksum(col, crcTable), le.Uint32(data[crcOff+4*i:]); got != want {
			return nil, nil, fmt.Errorf("%w: column %d checksum %08x, tail says %08x", ErrBadTrace, i, got, want)
		}
	}

	// Padding: every byte between header, columns, and tail must be zero, so
	// no byte of the file escapes both the checksums and this rule.
	for _, gap := range [][2]int{
		{v3HeaderLen, v3BodyOff},
		{l.blocksOff + 4*l.numEvents, l.succOff},
		{l.succOff + 2*l.numEvents, l.takenOff},
		{l.takenOff + l.numEvents, l.memOff},
		{l.memOff + 4*l.memTotal, l.memCntOff},
	} {
		for off := gap[0]; off < gap[1]; off++ {
			if data[off] != 0 {
				return nil, nil, fmt.Errorf("%w: nonzero padding byte at offset %d", ErrBadTrace, off)
			}
		}
	}

	// Tail payload: the result (built on the heap) and the aux sections
	// (aliasing data until the copying fallback below).
	r := &traceReader{data: data[:crcOff], pos: l.tailOff}
	result, err := r.readResult()
	if err != nil {
		return nil, nil, err
	}
	var aux []AuxSection
	if flags&flagAux != 0 {
		if aux, err = r.readAux(); err != nil {
			return nil, nil, err
		}
	}
	if r.pos != crcOff {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrBadTrace, crcOff-r.pos)
	}
	if prog == nil {
		if prog, err = sectionProgram(aux); err != nil {
			return nil, nil, err
		}
	}
	if numBlocks != uint64(len(prog.Blocks)) {
		return nil, nil, fmt.Errorf("%w: trace is over %d blocks, program has %d", ErrBadTrace, numBlocks, len(prog.Blocks))
	}

	cols := l.columns(data)
	// Taken bytes must be canonical booleans before a []bool may alias them.
	for i, b := range cols[2] {
		if b > 1 {
			return nil, nil, fmt.Errorf("%w: event %d taken byte %#02x", ErrBadTrace, i, b)
		}
	}

	t := &Trace{prog: prog, cfg: Config{MaxOps: maxOps}, result: result}
	if hostLittleEndian && (len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0) {
		t.borrowed = true
		t.blocks = aliasSlice[isa.BlockID](cols[0], l.numEvents)
		t.succIdx = aliasSlice[int16](cols[1], l.numEvents)
		t.taken = aliasSlice[bool](cols[2], l.numEvents)
		t.mem = aliasSlice[uint32](cols[3], l.memTotal)
		t.memCnt = aliasSlice[int32](cols[4], l.numBlocks)
	} else {
		for i := range aux {
			aux[i].Data = append([]byte(nil), aux[i].Data...)
		}
		t.blocks = make([]isa.BlockID, l.numEvents)
		t.succIdx = make([]int16, l.numEvents)
		t.taken = make([]bool, l.numEvents)
		t.mem = make([]uint32, l.memTotal)
		t.memCnt = make([]int32, l.numBlocks)
		for i := range t.blocks {
			t.blocks[i] = isa.BlockID(le.Uint32(cols[0][4*i:]))
			t.succIdx[i] = int16(le.Uint16(cols[1][2*i:]))
			t.taken[i] = cols[2][i] != 0
		}
		for i := range t.mem {
			t.mem[i] = le.Uint32(cols[3][4*i:])
		}
		for i := range t.memCnt {
			t.memCnt[i] = int32(le.Uint32(cols[4][4*i:]))
		}
	}

	// Structural validation against the program: static memory counts must
	// match, every committed block must exist, successor indices must be in
	// range, and the memory column must be exactly the sum of the committed
	// blocks' static counts.
	for id, n := range t.memCnt {
		if want := staticMemCount(prog.Blocks[id]); n != want {
			return nil, nil, fmt.Errorf("%w: B%d records %d memory operations, program has %d (trace/program mismatch)",
				ErrBadTrace, id, n, want)
		}
	}
	succCap := make([]int32, len(prog.Blocks))
	for id, b := range prog.Blocks {
		if b == nil {
			succCap[id] = -1
		} else {
			succCap[id] = int32(len(b.Succs))
		}
	}
	memSum := uint64(0)
	nb := uint32(len(prog.Blocks))
	for i, id := range t.blocks {
		if uint32(id) >= nb || succCap[id] < 0 {
			return nil, nil, fmt.Errorf("%w: event %d commits nonexistent block %d", ErrBadTrace, i, id)
		}
		if s := t.succIdx[i]; s < -1 || int32(s) >= succCap[id] {
			return nil, nil, fmt.Errorf("%w: event %d successor index %d out of range for B%d",
				ErrBadTrace, i, s, id)
		}
		memSum += uint64(t.memCnt[id])
	}
	if memSum != memTotal {
		return nil, nil, fmt.Errorf("%w: committed blocks imply %d memory addresses, column has %d", ErrBadTrace, memSum, memTotal)
	}
	return t, aux, nil
}

// aliasSlice reinterprets raw as a []T of length n without copying. The
// caller has already checked host endianness, base alignment, and (for bool)
// value canonicality; raw's backing memory must outlive the result.
func aliasSlice[T isa.BlockID | int16 | int32 | uint32 | bool](raw []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n)
}
