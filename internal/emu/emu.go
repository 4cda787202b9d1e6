package emu

import (
	"errors"
	"fmt"
	"math"

	"bsisa/internal/isa"
)

// Config bounds an emulation run.
type Config struct {
	// MaxOps aborts runs exceeding this committed-operation budget
	// (0 means DefaultMaxOps). Every committed block charges at least one
	// operation against it, so a loop of blocks without operations still
	// runs out.
	MaxOps int64
}

// DefaultMaxOps is the default committed-operation budget.
const DefaultMaxOps = 2_000_000_000

// ErrBudget is wrapped by the error of a run that exceeds Config.MaxOps.
var ErrBudget = errors.New("emu: operation budget exceeded")

// BlockEvent describes one committed block. The struct (including MemAddrs)
// is reused between handler invocations; handlers must not retain it.
type BlockEvent struct {
	// Block is the committed block.
	Block *isa.Block
	// Next is the next block to execute, or isa.NoBlock after HALT.
	Next isa.BlockID
	// SuccIdx is the index of Next in Block.Succs, or -1 when the
	// successor is not chosen by the trap (RET, JR, HALT).
	SuccIdx int
	// Taken is the trap/branch outcome for blocks ending in BR or TRAP.
	Taken bool
	// MemAddrs holds, for every LD/ST operation in the block (in operation
	// order), its byte address. Other operations contribute no entry.
	MemAddrs []uint32
}

// Handler consumes committed block events. Returning an error aborts the run.
type Handler func(ev *BlockEvent) error

// Stats summarizes an emulation run.
type Stats struct {
	Ops      int64 // committed operations
	Blocks   int64 // committed blocks
	Loads    int64
	Stores   int64
	Branches int64 // committed BR/TRAP operations
	Taken    int64 // of which taken
	// FaultRetries counts blocks the emulator started and abandoned because
	// a fault fired while *finding the committed path*. This is an emulation
	// artifact (the machine's own retry count depends on its predictor),
	// reported for diagnostics only.
	FaultRetries int64
}

// AvgBlockSize returns committed operations per committed block.
func (s *Stats) AvgBlockSize() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Blocks)
}

// Result is the outcome of a completed run.
type Result struct {
	Stats  Stats
	Output []int64 // values emitted by out()
	// ReturnValue is main's return value.
	ReturnValue int64
}

// Emulator executes a program.
type Emulator struct {
	prog *isa.Program
	cfg  Config
	regs [isa.NumRegs]int64
	mem  *Memory
	out  []int64

	// staging for atomic blocks
	stRegs   [isa.NumRegs]int64
	stStores []stagedStore
	stOut    []int64

	memAddrs []uint32
	stats    Stats
}

type stagedStore struct {
	addr uint32
	val  int64
}

// New prepares an emulator for the program.
func New(prog *isa.Program, cfg Config) *Emulator {
	if cfg.MaxOps == 0 {
		cfg.MaxOps = DefaultMaxOps
	}
	e := &Emulator{prog: prog, cfg: cfg, mem: NewMemory()}
	e.regs[isa.RegSP] = isa.StackTop
	// Install the read-only data segment (jump tables).
	base := prog.RodataBase()
	for i, w := range prog.Rodata {
		// Addresses are within the checked global+rodata window by
		// construction; errors are impossible for aligned writes.
		_ = e.mem.StoreWord(base+uint32(i)*8, w)
	}
	return e
}

// Run executes the program to HALT, invoking handler (which may be nil) for
// every committed block, in commit order.
//
// Events are emitted one block late: when the successor of a block is a
// variant group, the architecturally committed variant is only known once it
// itself commits (the emulator may have to retry siblings whose faults fire),
// so each event's Next and SuccIdx are patched with the block that actually
// committed next before the event is delivered.
func (e *Emulator) Run(handler Handler) (*Result, error) {
	cur := e.prog.Entry()
	var ev, pending BlockEvent
	havePending := false
	var charged int64 // operations charged against the budget

	emitPending := func(committedNext isa.BlockID) error {
		if !havePending || handler == nil {
			havePending = handler != nil
			return nil
		}
		pending.Next = committedNext
		if committedNext == isa.NoBlock {
			pending.SuccIdx = -1
		} else if idx := pending.Block.SuccIndex(committedNext); idx >= 0 {
			pending.SuccIdx = idx
		} else {
			pending.SuccIdx = -1 // RET/JR successor, not in the static list
		}
		return handler(&pending)
	}

	for {
		b := e.prog.Block(cur)
		if b == nil {
			return nil, fmt.Errorf("emu: control reached missing block B%d", cur)
		}
		committed, next, err := e.execBlock(b, &ev)
		if err != nil {
			return nil, fmt.Errorf("emu: in B%d (%s): %w", b.ID, e.prog.Funcs[b.Func].Name, err)
		}
		charged += max(int64(len(committed.Ops)), 1)
		if charged > e.cfg.MaxOps {
			return nil, fmt.Errorf("%w (%d operations)", ErrBudget, e.cfg.MaxOps)
		}
		if err := emitPending(committed.ID); err != nil {
			return nil, err
		}
		// Roll the just-committed block into the pending slot.
		pending.Block = ev.Block
		pending.Taken = ev.Taken
		pending.MemAddrs = append(pending.MemAddrs[:0], ev.MemAddrs...)
		if next == isa.NoBlock {
			if handler != nil {
				pending.Next = isa.NoBlock
				pending.SuccIdx = -1
				if err := handler(&pending); err != nil {
					return nil, err
				}
			}
			return &Result{Stats: e.stats, Output: e.out, ReturnValue: e.regs[isa.RegRV]}, nil
		}
		cur = next
	}
}

// execBlock executes one block (with atomic retry semantics for the
// block-structured ISA) and fills the event. It returns the committed block
// (which may be a sibling variant of start when faults fired) and its chosen
// successor.
func (e *Emulator) execBlock(start *isa.Block, ev *BlockEvent) (*isa.Block, isa.BlockID, error) {
	b := start
	for retry := 0; ; retry++ {
		if retry > 16 {
			return nil, isa.NoBlock, fmt.Errorf("fault retry loop starting at B%d", start.ID)
		}
		next, faultTo, err := e.tryBlock(b, ev)
		if err != nil {
			return nil, isa.NoBlock, err
		}
		if faultTo != isa.NoBlock {
			e.stats.FaultRetries++
			nb := e.prog.Block(faultTo)
			if nb == nil {
				return nil, isa.NoBlock, fmt.Errorf("fault in B%d targets missing B%d", b.ID, faultTo)
			}
			b = nb
			continue
		}
		return b, next, nil
	}
}

// tryBlock stages and (absent a firing fault) commits one block. It returns
// (next, NoBlock, nil) on commit or (NoBlock, faultTarget, nil) if a fault
// fired.
func (e *Emulator) tryBlock(b *isa.Block, ev *BlockEvent) (isa.BlockID, isa.BlockID, error) {
	atomic := e.prog.Kind.Atomic()
	regs := &e.regs
	if atomic {
		e.stRegs = e.regs
		regs = &e.stRegs
		e.stStores = e.stStores[:0]
		e.stOut = e.stOut[:0]
	}
	e.memAddrs = e.memAddrs[:0]

	next := isa.NoBlock
	succIdx := -1
	taken := false
	halted := false

	for i := range b.Ops {
		op := &b.Ops[i]
		switch op.Opcode {
		case isa.FAULT:
			cond := regs[op.Rs1]
			fires := (cond != 0) == op.FaultNZ
			if fires {
				if !atomic {
					return 0, 0, fmt.Errorf("fault op in conventional execution")
				}
				return isa.NoBlock, op.Target, nil
			}
		case isa.BR, isa.TRAP:
			taken = regs[op.Rs1] != 0
			e.stats.Branches++
			if taken {
				e.stats.Taken++
				next = b.Succs[0]
				succIdx = 0
			} else {
				next = b.Succs[b.TakenCount]
				succIdx = b.TakenCount
			}
		case isa.JMP:
			next = b.Succs[0]
			succIdx = 0
		case isa.CALL:
			regs[isa.RegLR] = int64(b.Cont)
			next = b.Succs[0]
			succIdx = 0
		case isa.RET, isa.JR:
			id := isa.BlockID(regs[op.Rs1])
			if e.prog.Block(id) == nil {
				return 0, 0, fmt.Errorf("%s to invalid block %d", op.Opcode, id)
			}
			next = id
			succIdx = -1
		case isa.HALT:
			halted = true
		default:
			if err := e.execALU(op, regs, atomic); err != nil {
				return 0, 0, err
			}
		}
		regs[isa.RegZero] = 0
	}
	if next == isa.NoBlock && !halted {
		// Fall-through block. With a forked successor set, start from the
		// canonical variant; the fault-retry loop finds the committed one.
		if len(b.Succs) < 1 {
			return 0, 0, fmt.Errorf("block B%d fell through with no successors", b.ID)
		}
		next = b.Succs[0]
		succIdx = 0
	}

	// Commit.
	if atomic {
		e.regs = e.stRegs
		for _, s := range e.stStores {
			if err := e.storeChecked(s.addr, s.val); err != nil {
				return 0, 0, err
			}
		}
		e.out = append(e.out, e.stOut...)
	}
	e.stats.Ops += int64(len(b.Ops))
	e.stats.Blocks++

	ev.Block = b
	ev.Next = next
	ev.SuccIdx = succIdx
	ev.Taken = taken
	ev.MemAddrs = e.memAddrs
	if halted {
		ev.Next = isa.NoBlock
	}
	return ev.Next, isa.NoBlock, nil
}

// execALU executes a non-control operation.
func (e *Emulator) execALU(op *isa.Op, regs *[isa.NumRegs]int64, atomic bool) error {
	wr := func(r isa.Reg, v int64) {
		if r != isa.RegZero {
			regs[r] = v
		}
	}
	b2i := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	f := func(r isa.Reg) float64 { return math.Float64frombits(uint64(regs[r])) }
	ffr := func(v float64) int64 { return int64(math.Float64bits(v)) }

	switch op.Opcode {
	case isa.NOP:
	case isa.ADD:
		wr(op.Rd, regs[op.Rs1]+regs[op.Rs2])
	case isa.SUB:
		wr(op.Rd, regs[op.Rs1]-regs[op.Rs2])
	case isa.AND:
		wr(op.Rd, regs[op.Rs1]&regs[op.Rs2])
	case isa.OR:
		wr(op.Rd, regs[op.Rs1]|regs[op.Rs2])
	case isa.XOR:
		wr(op.Rd, regs[op.Rs1]^regs[op.Rs2])
	case isa.SLT:
		wr(op.Rd, b2i(regs[op.Rs1] < regs[op.Rs2]))
	case isa.SLE:
		wr(op.Rd, b2i(regs[op.Rs1] <= regs[op.Rs2]))
	case isa.SEQ:
		wr(op.Rd, b2i(regs[op.Rs1] == regs[op.Rs2]))
	case isa.SNE:
		wr(op.Rd, b2i(regs[op.Rs1] != regs[op.Rs2]))
	case isa.ADDI:
		wr(op.Rd, regs[op.Rs1]+int64(op.Imm))
	case isa.ANDI:
		wr(op.Rd, regs[op.Rs1]&int64(uint16(op.Imm)))
	case isa.ORI:
		wr(op.Rd, regs[op.Rs1]|int64(uint16(op.Imm)))
	case isa.XORI:
		wr(op.Rd, regs[op.Rs1]^int64(uint16(op.Imm)))
	case isa.SLTI:
		wr(op.Rd, b2i(regs[op.Rs1] < int64(op.Imm)))
	case isa.LUI:
		wr(op.Rd, int64(op.Imm)<<16)
	case isa.CMOVNZ:
		if regs[op.Rs2] != 0 {
			wr(op.Rd, regs[op.Rs1])
		}
	case isa.MUL:
		wr(op.Rd, regs[op.Rs1]*regs[op.Rs2])
	case isa.DIV:
		if regs[op.Rs2] == 0 {
			return fmt.Errorf("division by zero")
		}
		wr(op.Rd, regs[op.Rs1]/regs[op.Rs2])
	case isa.REM:
		if regs[op.Rs2] == 0 {
			return fmt.Errorf("remainder by zero")
		}
		wr(op.Rd, regs[op.Rs1]%regs[op.Rs2])
	case isa.FADD:
		wr(op.Rd, ffr(f(op.Rs1)+f(op.Rs2)))
	case isa.FSUB:
		wr(op.Rd, ffr(f(op.Rs1)-f(op.Rs2)))
	case isa.FMUL:
		wr(op.Rd, ffr(f(op.Rs1)*f(op.Rs2)))
	case isa.FDIV:
		wr(op.Rd, ffr(f(op.Rs1)/f(op.Rs2)))
	case isa.FCVT:
		wr(op.Rd, ffr(float64(regs[op.Rs1])))
	case isa.SHL:
		wr(op.Rd, regs[op.Rs1]<<(uint64(regs[op.Rs2])&63))
	case isa.SHR:
		wr(op.Rd, int64(uint64(regs[op.Rs1])>>(uint64(regs[op.Rs2])&63)))
	case isa.SAR:
		wr(op.Rd, regs[op.Rs1]>>(uint64(regs[op.Rs2])&63))
	case isa.SHLI:
		wr(op.Rd, regs[op.Rs1]<<(uint64(op.Imm)&63))
	case isa.SHRI:
		wr(op.Rd, int64(uint64(regs[op.Rs1])>>(uint64(op.Imm)&63)))
	case isa.SARI:
		wr(op.Rd, regs[op.Rs1]>>(uint64(op.Imm)&63))
	case isa.LD:
		addr, err := e.effAddr(regs[op.Rs1], op.Imm)
		if err != nil {
			return err
		}
		e.memAddrs = append(e.memAddrs, addr)
		e.stats.Loads++
		v, err := e.loadChecked(addr, atomic)
		if err != nil {
			return err
		}
		wr(op.Rd, v)
	case isa.ST:
		addr, err := e.effAddr(regs[op.Rs1], op.Imm)
		if err != nil {
			return err
		}
		e.memAddrs = append(e.memAddrs, addr)
		e.stats.Stores++
		if atomic {
			e.stStores = append(e.stStores, stagedStore{addr, regs[op.Rs2]})
		} else if err := e.storeChecked(addr, regs[op.Rs2]); err != nil {
			return err
		}
	case isa.OUT:
		if atomic {
			e.stOut = append(e.stOut, regs[op.Rs1])
		} else {
			e.out = append(e.out, regs[op.Rs1])
		}
	default:
		return fmt.Errorf("unhandled opcode %s", op.Opcode)
	}
	return nil
}

func (e *Emulator) effAddr(base int64, imm int32) (uint32, error) {
	a := base + int64(imm)
	if a < 0 || a > math.MaxUint32 {
		return 0, fmt.Errorf("address %#x out of range", a)
	}
	return uint32(a), nil
}

// loadChecked reads memory, honoring staged stores when executing atomically
// (a block must observe its own earlier stores).
func (e *Emulator) loadChecked(addr uint32, atomic bool) (int64, error) {
	if err := e.checkAddr(addr); err != nil {
		return 0, err
	}
	if atomic {
		for i := len(e.stStores) - 1; i >= 0; i-- {
			if e.stStores[i].addr == addr {
				return e.stStores[i].val, nil
			}
		}
	}
	return e.mem.LoadWord(addr)
}

func (e *Emulator) storeChecked(addr uint32, v int64) error {
	if err := e.checkAddr(addr); err != nil {
		return err
	}
	return e.mem.StoreWord(addr, v)
}

// checkAddr enforces the memory map: accesses must hit the global segment or
// the stack. This catches compiler bugs early.
func (e *Emulator) checkAddr(addr uint32) error {
	globalEnd := uint32(isa.GlobalBase) + (uint32(e.prog.GlobalWords)+uint32(len(e.prog.Rodata)))*8
	if addr >= isa.GlobalBase && addr < globalEnd {
		return nil
	}
	if addr >= isa.StackLimit && addr < isa.StackTop {
		return nil
	}
	if addr >= isa.StackLimit-4096 && addr < isa.StackLimit {
		return fmt.Errorf("stack overflow at %#x", addr)
	}
	return fmt.Errorf("access to unmapped address %#x (globals end %#x)", addr, globalEnd)
}
