package emu

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"bsisa/internal/isa"
)

// TraceMapping is a read-only trace file opened for zero-copy replay: the
// file is memory-mapped (where the platform supports it), validated once via
// DecodeTrace, and the resulting Trace aliases the mapped pages directly. N
// concurrent replays of one mapping share a single page-cache copy of the
// trace instead of N decoded heaps.
//
// Lifecycle is reference-counted: a mapping starts with one reference owned
// by the opener, every concurrent user takes its own with Acquire, and the
// pages are unmapped only when the last reference is released — so an
// eviction or cache drop can never unmap under an active replay. Trace()
// and its replays are valid exactly while the caller holds a reference.
type TraceMapping struct {
	tr     *Trace
	aux    []AuxSection
	data   []byte
	mapped bool
	size   int64
	refs   atomic.Int64

	// released, if set (OnRelease), runs exactly once after the final
	// reference is dropped and the pages are unmapped.
	released func()
}

// OpenTraceFile maps the trace file at path read-only and validates it
// against prog. Decode failures (including a program mismatch or a version
// other than 3) release the mapping and wrap ErrBadTrace, so callers
// quarantine exactly as they would for a byte-slice decode; a missing file
// surfaces as the *PathError from os.Open.
//
// On platforms without mmap, and on big-endian hosts, the file still opens
// but decodes into heap copies; ZeroCopy reports which path was taken.
func OpenTraceFile(path string, prog *isa.Program) (*TraceMapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("%w: %d-byte file", ErrBadTrace, size)
	}
	data, mapped, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("emu: map %s: %w", path, err)
	}
	tr, aux, err := DecodeTrace(data, prog)
	if err != nil {
		unmapFile(data, mapped)
		return nil, err
	}
	m := &TraceMapping{tr: tr, aux: aux, data: data, mapped: mapped, size: size}
	if !tr.borrowed && mapped {
		// The decode fell back to heap copies (alignment or endianness): the
		// mapping backs nothing, so drop it now and serve the heap trace with
		// no unmap hazard at all.
		unmapFile(data, mapped)
		m.data, m.mapped = nil, false
	}
	m.refs.Store(1)
	return m, nil
}

// Trace returns the mapped trace. It aliases the mapping when ZeroCopy is
// true, so it must only be used while the caller holds a reference.
func (m *TraceMapping) Trace() *Trace { return m.tr }

// Aux returns the file's aux sections. Section data is always copied at
// decode time, never aliased, so it stays valid after the mapping closes.
func (m *TraceMapping) Aux() []AuxSection { return m.aux }

// ZeroCopy reports whether the trace aliases mapped pages (true) or was
// decoded into the heap (false: a no-mmap platform, or an alignment or
// endianness fallback).
func (m *TraceMapping) ZeroCopy() bool { return m.mapped }

// SizeBytes is the on-disk (and, when ZeroCopy, resident-mapped) size.
func (m *TraceMapping) SizeBytes() int64 { return m.size }

// Acquire takes a new reference, returning false if the mapping has already
// fully closed (the caller must then reopen the file instead).
func (m *TraceMapping) Acquire() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. The final release unmaps the pages and fires
// the OnRelease hook; the mapping and its Trace must not be used afterwards.
func (m *TraceMapping) Release() {
	n := m.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("emu: TraceMapping released more times than acquired")
	}
	if m.mapped {
		unmapFile(m.data, true)
		m.mapped = false
	}
	m.data = nil
	if m.released != nil {
		m.released()
	}
}

// OnRelease registers fn to run after the final Release unmaps the pages.
// It must be set while the caller still holds a reference (typically right
// after OpenTraceFile) and before the mapping is shared.
func (m *TraceMapping) OnRelease(fn func()) { m.released = fn }

// readFallback loads the file contents into the heap — the portable path
// for platforms without mmap and for files too awkward to map.
func readFallback(f *os.File, size int) ([]byte, bool, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}
