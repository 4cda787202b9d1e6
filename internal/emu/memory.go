// Package emu provides functional emulation of both ISAs. The emulator
// executes a compiled program to architectural completion and produces the
// committed dynamic block stream the timing model (internal/uarch) consumes.
//
// For the block-structured ISA the emulator honors atomic-block semantics:
// a block's register writes, stores and output are staged and commit only if
// no fault operation fires; a firing fault abandons the block and redirects
// to the fault's target (the sibling enlarged variant). The committed stream
// therefore contains only non-faulting blocks, exactly the architectural
// execution the paper's processor retires.
package emu

import "fmt"

const (
	pageShift = 12 // 4 KiB pages
	pageWords = 1 << (pageShift - 3)
)

// Memory is a sparse, paged, word-granular memory.
type Memory struct {
	pages map[uint32]*[pageWords]int64
}

// NewMemory returns an empty memory (all zeros).
func NewMemory() *Memory {
	return &Memory{pages: map[uint32]*[pageWords]int64{}}
}

// LoadWord reads the 8-byte word at an aligned byte address.
func (m *Memory) LoadWord(addr uint32) (int64, error) {
	if addr&7 != 0 {
		return 0, fmt.Errorf("emu: misaligned load at %#x", addr)
	}
	p, ok := m.pages[addr>>pageShift]
	if !ok {
		return 0, nil
	}
	return p[addr>>3&(pageWords-1)], nil
}

// StoreWord writes the 8-byte word at an aligned byte address.
func (m *Memory) StoreWord(addr uint32, v int64) error {
	if addr&7 != 0 {
		return fmt.Errorf("emu: misaligned store at %#x", addr)
	}
	key := addr >> pageShift
	p, ok := m.pages[key]
	if !ok {
		p = new([pageWords]int64)
		m.pages[key] = p
	}
	p[addr>>3&(pageWords-1)] = v
	return nil
}
