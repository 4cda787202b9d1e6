package isa

import "fmt"

// BlockID indexes a block within a Program. The invalid value is NoBlock.
type BlockID int32

// NoBlock is the absent-block sentinel.
const NoBlock BlockID = -1

// FuncID indexes a function within a Program.
type FuncID int32

// OpBytes is the encoded size of every operation. HeaderBytes is the encoded
// size of a block header (operation count, successor metadata). Both ISAs pay
// the header: a conventional basic block's header degenerates to padding-free
// sequential code, so conventional headers are zero bytes.
const (
	OpBytes     = 4
	HeaderBytes = 8
)

// Block is the unit of control in both ISAs.
//
// In the conventional ISA a Block is a basic block: straight-line operations
// ending in at most one control operation (BR/JMP/CALL/RET/JR/HALT).
//
// In the block-structured ISA a Block is an atomic block: it commits
// all-or-nothing, may contain up to MaxFaults fault operations, and ends in
// at most one trap operation. Its successor list is grouped: the first
// TakenCount entries are the variants reached when the trap condition is
// true, the remainder when it is false. Enlarged variants within a group are
// distinguished at run time by their fault operations.
type Block struct {
	ID   BlockID
	Func FuncID

	// Ops are the operations, in dependency order. For atomic blocks the
	// ISA semantics permit any order; the compiler emits dependency order
	// so in-order functional evaluation is valid.
	Ops []Op

	// Succs lists the possible next blocks, grouped taken-first. For a
	// conventional conditional branch this is [taken, fallthrough] with
	// TakenCount == 1. For unconditional flow it has one entry. Blocks
	// ending in CALL list the callee's entry; the return continuation is
	// Cont. Blocks ending in RET or HALT have no successors.
	Succs []BlockID

	// TakenCount is the number of leading Succs entries that belong to the
	// trap-taken group.
	TakenCount int

	// HistBits is the number of branch-history bits a predictor shifts into
	// its history register after predicting this block's successor:
	// ceil(log2(len(Succs))), zero for unconditional flow. The trap
	// operation encodes this value (paper §4.1).
	HistBits int

	// Cont is the return-continuation block for blocks ending in CALL; the
	// callee's RET transfers there. NoBlock otherwise.
	Cont BlockID

	// Library marks blocks belonging to library functions; the block
	// enlargement optimization never combines them (paper rule 5).
	Library bool

	// Addr and Size are assigned by Layout: the block's byte address and
	// encoded size (header + operations).
	Addr uint32
	Size uint32
}

// NewBlock returns an empty block for the given function with no
// continuation. Prefer this over a composite literal: the zero value of Cont
// is block 0, not NoBlock.
func NewBlock(f FuncID) *Block {
	return &Block{ID: NoBlock, Func: f, Cont: NoBlock}
}

// NumOps returns the number of operations in the block.
func (b *Block) NumOps() int { return len(b.Ops) }

// NumFaults returns the number of fault operations in the block.
func (b *Block) NumFaults() int {
	n := 0
	for i := range b.Ops {
		if b.Ops[i].Opcode == FAULT {
			n++
		}
	}
	return n
}

// Terminator returns the block's final control operation, or nil if the block
// falls through unconditionally (successor recorded only in Succs).
func (b *Block) Terminator() *Op {
	if len(b.Ops) == 0 {
		return nil
	}
	last := &b.Ops[len(b.Ops)-1]
	if last.Opcode.IsBlockEnd() {
		return last
	}
	return nil
}

// TakenSuccs returns the trap-taken variant group.
func (b *Block) TakenSuccs() []BlockID { return b.Succs[:b.TakenCount] }

// NotTakenSuccs returns the trap-not-taken variant group.
func (b *Block) NotTakenSuccs() []BlockID { return b.Succs[b.TakenCount:] }

// SuccIndex returns the position of id in Succs, or -1.
func (b *Block) SuccIndex(id BlockID) int {
	for i, s := range b.Succs {
		if s == id {
			return i
		}
	}
	return -1
}

// histBitsFor computes ceil(log2(n)) for a successor count n.
func histBitsFor(n int) int {
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	return bits
}

// RecomputeHistBits refreshes HistBits from the successor list. Blocks with
// zero or one successor need no prediction bits.
func (b *Block) RecomputeHistBits() {
	if len(b.Succs) <= 1 {
		b.HistBits = 0
		return
	}
	b.HistBits = histBitsFor(len(b.Succs))
}

// EncodedSize returns the block's encoded size in bytes for the given ISA
// kind: kinds with a block header (the block-structured ISA's descriptor,
// BasicBlocker's block-length header) pay it per block, conventional basic
// blocks are raw code.
func (b *Block) EncodedSize(kind Kind) uint32 {
	return uint32(len(b.Ops))*OpBytes + kind.HeaderBytes()
}

func (b *Block) String() string {
	return fmt.Sprintf("B%d(%d ops, %d succs)", b.ID, len(b.Ops), len(b.Succs))
}

// Kind distinguishes the ISA backends a program can be compiled for. The
// fetch policy, shaping pass and provenance audit each kind implies live in
// internal/backend; this package only encodes the structural rules (which
// opcodes are legal, whether blocks pay an encoded header).
type Kind uint8

const (
	// Conventional is the baseline load/store ISA.
	Conventional Kind = iota
	// BlockStructured is the paper's block-structured ISA: atomic blocks
	// with TRAP terminators, FAULT operations and enlarged variant sets.
	BlockStructured
	// BasicBlocker keeps conventional semantics but encodes each basic
	// block behind a block-length header so fetch knows the block extent up
	// front; fetch proceeds without speculation inside a block and control
	// transfers resolve at block boundaries (Thoma et al.).
	BasicBlocker
	// MacroFused is the conventional ISA with a decode-time macro-op fusion
	// pass: adjacent dependent pairs issue as one internal operation
	// (Celio et al.), reducing effective window/FU pressure.
	MacroFused
)

// NumKinds bounds the Kind enum; Decode rejects container bytes at or above
// it.
const NumKinds = 4

// String returns the kind's canonical name; a kind out of range prints by
// number, as kind(5).
func (k Kind) String() string {
	switch k {
	case Conventional:
		return "conventional"
	case BlockStructured:
		return "block-structured"
	case BasicBlocker:
		return "basicblocker"
	case MacroFused:
		return "fused"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HeaderBytes returns the per-block encoded header size for the kind: the
// block-structured ISA's block descriptor and BasicBlocker's block-length
// header both cost HeaderBytes; the conventional and fused ISAs encode raw
// code.
func (k Kind) HeaderBytes() uint32 {
	if k == BlockStructured || k == BasicBlocker {
		return HeaderBytes
	}
	return 0
}

// Atomic reports whether blocks of this kind commit all-or-nothing (the
// emulator stages registers, stores and output until the block completes).
func (k Kind) Atomic() bool { return k == BlockStructured }

// Func is a program function.
type Func struct {
	ID      FuncID
	Name    string
	Entry   BlockID
	NumArgs int
	// FrameSize is the byte size of the stack frame (locals + spills),
	// 8-byte aligned.
	FrameSize int32
	// Library marks the function as a library function (paper rule 5).
	Library bool
}

// Program is a compiled executable for one of the two ISAs.
type Program struct {
	Kind   Kind
	Name   string
	Funcs  []*Func
	Blocks []*Block // dense, indexed by BlockID; entries may be nil after DCE
	// EntryFunc is the function where execution starts.
	EntryFunc FuncID
	// GlobalWords is the size of the global data segment in 8-byte words.
	GlobalWords int32
	// globalsByName maps a global's name to its word offset; kept for
	// diagnostics and the emulator's symbol lookups.
	GlobalOffsets map[string]int32
	// Rodata is the initialized read-only data segment (jump tables),
	// placed immediately after the globals. The emulator installs it at
	// startup; entries are 8-byte words (block IDs for jump tables).
	Rodata []int64
}

// RodataBase returns the byte address of the read-only data segment.
func (p *Program) RodataBase() uint32 {
	return uint32(GlobalBase) + uint32(p.GlobalWords)*8
}

// Block returns the block with the given ID, or nil.
func (p *Program) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// AddBlock appends a block, assigning its ID.
func (p *Program) AddBlock(b *Block) BlockID {
	b.ID = BlockID(len(p.Blocks))
	p.Blocks = append(p.Blocks, b)
	return b.ID
}

// Entry returns the entry block of the entry function.
func (p *Program) Entry() BlockID {
	return p.Funcs[p.EntryFunc].Entry
}

// FuncByName returns the named function, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumLiveBlocks counts non-nil blocks.
func (p *Program) NumLiveBlocks() int {
	n := 0
	for _, b := range p.Blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// StaticOps counts operations across live blocks.
func (p *Program) StaticOps() int {
	n := 0
	for _, b := range p.Blocks {
		if b != nil {
			n += len(b.Ops)
		}
	}
	return n
}

// CodeBytes returns the total encoded code size; valid after Layout.
func (p *Program) CodeBytes() uint32 {
	var sz uint32
	for _, b := range p.Blocks {
		if b != nil {
			sz += b.EncodedSize(p.Kind)
		}
	}
	return sz
}

// Layout assigns byte addresses to every live block. Blocks are laid out
// function by function in block-creation order, which places enlarged
// variants near their origin. The code segment starts at CodeBase.
func (p *Program) Layout() {
	addr := uint32(CodeBase)
	// Group blocks by function, preserving creation order within each.
	byFunc := make([][]*Block, len(p.Funcs))
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		byFunc[b.Func] = append(byFunc[b.Func], b)
	}
	for _, blocks := range byFunc {
		for _, b := range blocks {
			b.Addr = addr
			b.Size = b.EncodedSize(p.Kind)
			addr += b.Size
		}
	}
}

// Memory map constants shared by layout, emulator and caches.
const (
	// CodeBase is the byte address of the first block.
	CodeBase = 0x0000_1000
	// GlobalBase is the byte address of the global data segment.
	GlobalBase = 0x0100_0000
	// StackTop is the initial stack pointer (stack grows down).
	StackTop = 0x0200_0000
	// StackLimit is the lowest legal stack address.
	StackLimit = 0x01F0_0000
)

// Validate checks structural invariants of the program and returns the first
// violation found. It is used heavily by tests and after every compiler or
// enlargement pass.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("isa: program has no functions")
	}
	if p.EntryFunc < 0 || int(p.EntryFunc) >= len(p.Funcs) {
		return fmt.Errorf("isa: entry function %d out of range", p.EntryFunc)
	}
	for _, f := range p.Funcs {
		b := p.Block(f.Entry)
		if b == nil {
			return fmt.Errorf("isa: function %s entry B%d missing", f.Name, f.Entry)
		}
		if b.Func != f.ID {
			return fmt.Errorf("isa: function %s entry B%d belongs to func %d", f.Name, f.Entry, b.Func)
		}
	}
	for id, b := range p.Blocks {
		if b == nil {
			continue
		}
		if b.ID != BlockID(id) {
			return fmt.Errorf("isa: block at index %d has ID %d", id, b.ID)
		}
		if err := p.validateBlock(b); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateBlock(b *Block) error {
	if b.TakenCount < 0 || b.TakenCount > len(b.Succs) {
		return fmt.Errorf("isa: B%d TakenCount %d out of range (succs %d)", b.ID, b.TakenCount, len(b.Succs))
	}
	for _, s := range b.Succs {
		if p.Block(s) == nil {
			return fmt.Errorf("isa: B%d has dangling successor B%d", b.ID, s)
		}
	}
	want := histBitsFor(len(b.Succs))
	if len(b.Succs) <= 1 {
		want = 0
	}
	if b.HistBits != want {
		return fmt.Errorf("isa: B%d HistBits %d, want %d for %d successors", b.ID, b.HistBits, want, len(b.Succs))
	}
	// Faults and traps exist only in the block-structured ISA; every other
	// kind (conventional, basicblocker, fused) branches with BR, which the
	// block-structured ISA in turn bans.
	for i := range b.Ops {
		op := &b.Ops[i]
		switch op.Opcode {
		case FAULT, TRAP:
			if p.Kind != BlockStructured {
				return fmt.Errorf("isa: B%d has %s in %s program", b.ID, op.Opcode, p.Kind)
			}
		case BR:
			if p.Kind == BlockStructured {
				return fmt.Errorf("isa: B%d has br in block-structured program", b.ID)
			}
		}
		if op.Opcode.IsBlockEnd() && i != len(b.Ops)-1 {
			return fmt.Errorf("isa: B%d has terminator %s at position %d of %d", b.ID, op.Opcode, i, len(b.Ops))
		}
		if op.Opcode == FAULT && p.Block(op.Target) == nil {
			return fmt.Errorf("isa: B%d fault targets missing B%d", b.ID, op.Target)
		}
	}
	term := b.Terminator()
	switch {
	case term == nil:
		// A fall-through block normally has one successor; after block
		// enlargement its successor may have been forked into a variant
		// set the predictor chooses among.
		if len(b.Succs) < 1 {
			return fmt.Errorf("isa: B%d falls through with no successors", b.ID)
		}
		if len(b.Succs) > 1 && p.Kind != BlockStructured {
			return fmt.Errorf("isa: B%d falls through with %d successors in conventional program", b.ID, len(b.Succs))
		}
	case term.Opcode == BR || term.Opcode == TRAP:
		if len(b.Succs) < 2 {
			return fmt.Errorf("isa: B%d ends in %s with %d successors", b.ID, term.Opcode, len(b.Succs))
		}
		if b.TakenCount < 1 || b.TakenCount >= len(b.Succs) {
			return fmt.Errorf("isa: B%d ends in %s with TakenCount %d of %d", b.ID, term.Opcode, b.TakenCount, len(b.Succs))
		}
	case term.Opcode == JMP:
		if len(b.Succs) != 1 {
			return fmt.Errorf("isa: B%d ends in jmp with %d successors", b.ID, len(b.Succs))
		}
	case term.Opcode == CALL:
		if len(b.Succs) != 1 {
			return fmt.Errorf("isa: B%d ends in call with %d successors", b.ID, len(b.Succs))
		}
		if p.Block(b.Cont) == nil {
			return fmt.Errorf("isa: B%d ends in call with no continuation", b.ID)
		}
	case term.Opcode == RET || term.Opcode == HALT || term.Opcode == JR:
		if len(b.Succs) != 0 && term.Opcode != JR {
			return fmt.Errorf("isa: B%d ends in %s with %d successors", b.ID, term.Opcode, len(b.Succs))
		}
	}
	return nil
}

// LayoutOrdered assigns addresses like Layout but lays each function's
// blocks out in the order given by rank (lower rank first; blocks sharing a
// rank keep creation order). Profile-guided placement passes use this to
// pack hot blocks onto few icache lines.
func (p *Program) LayoutOrdered(rank func(*Block) int64) {
	addr := uint32(CodeBase)
	byFunc := make([][]*Block, len(p.Funcs))
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		byFunc[b.Func] = append(byFunc[b.Func], b)
	}
	for _, blocks := range byFunc {
		// Stable insertion sort by rank keeps creation order within ties.
		for i := 1; i < len(blocks); i++ {
			for j := i; j > 0 && rank(blocks[j]) < rank(blocks[j-1]); j-- {
				blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
			}
		}
		for _, b := range blocks {
			b.Addr = addr
			b.Size = b.EncodedSize(p.Kind)
			addr += b.Size
		}
	}
}
