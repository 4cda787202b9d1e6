package emu

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"bsisa/internal/compile"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// FuzzDecodeTrace feeds arbitrary bytes to DecodeTrace, the parser a trace
// store hands its mapped files. Every input is decoded twice: against the
// program it was recorded from, and with no program, so the decoder reads
// one from the program section. In both modes it must never panic, every
// failure must wrap ErrBadTrace, a decoded trace must replay, and a borrowed
// (zero-copy) trace's every column and every aux section must lie inside
// the buffer it was handed — the decoder builds those columns with unsafe
// and nothing else bounds them, and a section that strayed outside would
// outlive the mapping it claims to alias. Inputs are decoded from an 8-byte-aligned copy, as a mapping is, so
// the aliasing path runs.
func FuzzDecodeTrace(f *testing.F) {
	prog, err := compile.Compile(testgen.Program(9021), "fuzz", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		f.Fatal(err)
	}
	tr, err := Record(prog, Config{MaxOps: 1_000_000})
	if err != nil {
		f.Fatal(err)
	}
	sec, err := ProgramSection(prog)
	if err != nil {
		f.Fatal(err)
	}
	aux := []AuxSection{{Tag: 8, Data: []byte("predecoded tables")}, {Tag: 16, Data: []byte{0, 1, 2}}}
	stored := append([]AuxSection{sec}, aux...)
	for _, p := range []*isa.Program{prog, nil} {
		if seed, _, err := DecodeTrace(alignedCopy(tr.EncodeBytes(stored)), p); err != nil || hostLittleEndian && !seed.Borrowed() {
			f.Fatalf("the v3 seed must decode zero-copy from an aligned buffer (program given: %v): err %v", p != nil, err)
		}
	}
	f.Add(tr.EncodeBytes(nil))
	f.Add(tr.EncodeBytes(aux))
	f.Add(tr.EncodeBytes(stored[:1]))
	f.Add(tr.EncodeBytes(stored))
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := alignedCopy(data)
		for _, p := range []*isa.Program{prog, nil} {
			requireSafeDecode(t, buf, p)
		}
	})
}

// requireSafeDecode decodes buf against prog (nil: the program section) and
// holds the result to FuzzDecodeTrace's contract.
func requireSafeDecode(t *testing.T, buf []byte, prog *isa.Program) {
	got, aux, err := DecodeTrace(buf, prog)
	if err != nil {
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("decode failure does not wrap ErrBadTrace (program given: %v): %v", prog != nil, err)
		}
		return
	}
	if got.Borrowed() {
		type span struct {
			name string
			p    unsafe.Pointer
			size uintptr
		}
		spans := []span{
			{"column blocks", unsafe.Pointer(unsafe.SliceData(got.blocks)), uintptr(len(got.blocks)) * unsafe.Sizeof(got.blocks[0])},
			{"column succIdx", unsafe.Pointer(unsafe.SliceData(got.succIdx)), uintptr(len(got.succIdx)) * unsafe.Sizeof(got.succIdx[0])},
			{"column taken", unsafe.Pointer(unsafe.SliceData(got.taken)), uintptr(len(got.taken)) * unsafe.Sizeof(got.taken[0])},
			{"column mem", unsafe.Pointer(unsafe.SliceData(got.mem)), uintptr(len(got.mem)) * unsafe.Sizeof(got.mem[0])},
			{"column memCnt", unsafe.Pointer(unsafe.SliceData(got.memCnt)), uintptr(len(got.memCnt)) * unsafe.Sizeof(got.memCnt[0])},
		}
		for _, s := range aux {
			spans = append(spans, span{fmt.Sprintf("aux section %d", s.Tag), unsafe.Pointer(unsafe.SliceData(s.Data)), uintptr(len(s.Data))})
		}
		for _, s := range spans {
			if s.size == 0 {
				continue
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
			start := uintptr(s.p)
			if start < lo || start+s.size > lo+uintptr(len(buf)) {
				t.Fatalf("borrowed %s [%#x, %#x) lies outside the %d-byte input at %#x",
					s.name, start, start+s.size, len(buf), lo)
			}
		}
	}
	if err := got.Replay(func(*BlockEvent) error { return nil }); err != nil {
		t.Fatalf("decoded trace does not replay (program given: %v): %v", prog != nil, err)
	}
}

// alignedCopy copies data into an 8-byte-aligned buffer, the alignment a
// page-aligned mapping gives DecodeTrace.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[:len(data)]
	copy(buf, data)
	return buf
}
