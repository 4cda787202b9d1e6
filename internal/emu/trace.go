package emu

import (
	"context"
	"fmt"
	"math"
	"sync"

	"bsisa/internal/isa"
)

// Trace is a compact recording of a program's committed block stream: the
// exact sequence of BlockEvents one Run produces, stored in flat slices so a
// multi-million-block trace costs a handful of allocations rather than one
// per event. The stream depends only on the program and the emulation
// budget, never on any timing configuration, so a trace recorded once can
// drive any number of timing simulations (uarch.ReplayTrace /
// uarch.SimulateMany) without re-running functional emulation.
//
// Per event the trace stores the committed block ID, the trap direction and
// the successor index; the committed Next block is the following event's
// block, and memory addresses live in one flat slice sliced per block by the
// block's static load/store count (every committed block executes all of its
// operations, so the count is a program constant).
type Trace struct {
	prog *isa.Program
	cfg  Config

	blocks  []isa.BlockID
	succIdx []int16
	taken   []bool
	mem     []uint32 // LD/ST addresses of every event, concatenated
	memCnt  []int32  // static LD/ST count per block ID

	// borrowed marks a trace whose event columns alias the buffer DecodeTrace
	// was handed (the v3 zero-copy path) instead of owning heap slices.
	borrowed bool

	result *Result
}

// Borrowed reports whether the trace's event columns alias the decode
// buffer rather than owning their storage. A borrowed trace is only valid
// while that buffer stays immutable and mapped — TraceMapping's refcount is
// the lifecycle that guarantees it.
func (t *Trace) Borrowed() bool { return t.borrowed }

// Record runs the functional emulator once and captures the committed block
// stream. The recorded trace replays the exact event sequence the run
// delivered, so any handler observes identical inputs either way.
func Record(prog *isa.Program, cfg Config) (*Trace, error) {
	t := &Trace{prog: prog, cfg: cfg}
	t.memCnt = make([]int32, len(prog.Blocks))
	for id, b := range prog.Blocks {
		if b == nil {
			continue
		}
		n := 0
		for i := range b.Ops {
			if op := b.Ops[i].Opcode; op == isa.LD || op == isa.ST {
				n++
			}
		}
		t.memCnt[id] = int32(n)
	}
	res, err := New(prog, cfg).Run(func(ev *BlockEvent) error {
		if len(ev.MemAddrs) != int(t.memCnt[ev.Block.ID]) {
			return fmt.Errorf("emu: trace: B%d committed %d memory addresses, static count %d",
				ev.Block.ID, len(ev.MemAddrs), t.memCnt[ev.Block.ID])
		}
		if ev.SuccIdx < math.MinInt16 || ev.SuccIdx > math.MaxInt16 {
			return fmt.Errorf("emu: trace: B%d successor index %d overflows", ev.Block.ID, ev.SuccIdx)
		}
		t.blocks = append(t.blocks, ev.Block.ID)
		t.succIdx = append(t.succIdx, int16(ev.SuccIdx))
		t.taken = append(t.taken, ev.Taken)
		t.mem = append(t.mem, ev.MemAddrs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.result = res
	return t, nil
}

// Replay delivers the recorded committed stream to handler, reconstructing
// the same BlockEvent sequence Run produced. As with Run, the event struct
// is reused between invocations and must not be retained; MemAddrs slices
// alias the trace and must not be mutated.
func (t *Trace) Replay(handler Handler) error {
	return t.ReplayContext(context.Background(), handler)
}

// replayChunk is how many events ReplayContext delivers between context
// checks: large enough that the check is free against the per-event work,
// small enough that cancellation of a multi-million-block replay lands
// within microseconds. Power of two so the check is a mask, not a modulo.
const replayChunk = 4096

// replayEventPool recycles the one BlockEvent header a replay walks the
// stream through. Handlers are dynamic calls, so a stack-local event would
// escape and cost one heap allocation per replay; pooling it keeps the
// steady-state mapped-trace walk at zero allocations (pinned by the root
// TestMappedReplayZeroAlloc). Safe because the delivered event must not be
// retained past the handler anyway.
var replayEventPool = sync.Pool{New: func() any { return new(BlockEvent) }}

// putReplayEvent clears the event (so a pooled header cannot pin a trace's
// memory slices alive) and returns it to the pool.
func putReplayEvent(ev *BlockEvent) {
	*ev = BlockEvent{}
	replayEventPool.Put(ev)
}

// ReplayContext is Replay with cooperative cancellation: between chunks of
// replayChunk events it checks ctx and stops with ctx.Err() as soon as the
// context is done. A nil ctx replays to completion.
func (t *Trace) ReplayContext(ctx context.Context, handler Handler) error {
	if handler == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ev := replayEventPool.Get().(*BlockEvent)
	defer putReplayEvent(ev)
	memPos := 0
	for i, id := range t.blocks {
		if i&(replayChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ev.Block = t.prog.Blocks[id]
		n := int(t.memCnt[id])
		ev.MemAddrs = t.mem[memPos : memPos+n : memPos+n]
		memPos += n
		ev.SuccIdx = int(t.succIdx[i])
		ev.Taken = t.taken[i]
		if i+1 < len(t.blocks) {
			ev.Next = t.blocks[i+1]
		} else {
			ev.Next = isa.NoBlock
		}
		if err := handler(ev); err != nil {
			return err
		}
	}
	return nil
}

// Program returns the program the trace was recorded from. Replaying assumes
// the program (including its block layout) has not been modified since.
func (t *Trace) Program() *isa.Program { return t.prog }

// BlockIDs returns the recorded committed block ID sequence, one entry per
// event. The slice aliases the trace's internal storage and must not be
// mutated; it lets batch engines (uarch.Sweep) iterate the stream
// without reconstructing BlockEvents.
func (t *Trace) BlockIDs() []isa.BlockID { return t.blocks }

// EmuConfig returns the emulation configuration the trace was recorded
// under. Traces are only interchangeable with direct runs of the same
// budget.
func (t *Trace) EmuConfig() Config { return t.cfg }

// EmuResult returns the functional result of the recorded run (emulator
// statistics, program output, return value).
func (t *Trace) EmuResult() *Result { return t.result }

// NumEvents returns the number of committed blocks in the trace.
func (t *Trace) NumEvents() int { return len(t.blocks) }

// Footprint returns the approximate in-memory size of the trace in bytes,
// for capacity planning and progress reporting.
func (t *Trace) Footprint() int64 {
	return int64(len(t.blocks))*7 + int64(len(t.mem))*4 + int64(len(t.memCnt))*4
}
