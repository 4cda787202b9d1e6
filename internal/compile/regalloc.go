package compile

import (
	"cmp"
	"slices"

	"bsisa/internal/ir"
	"bsisa/internal/isa"
)

// Calling-convention split of the allocatable registers (r11..r28): values
// not live across any call prefer caller-saved registers (which cost nothing
// to use); values live across a call must sit in callee-saved registers
// (saved/restored by the prologue/epilogue of functions that use them) or be
// spilled.
const (
	firstCalleeSaved = isa.RegTmp0 + 9 // r20
)

// IsCalleeSaved reports whether an allocatable register must be preserved by
// a callee that writes it.
func IsCalleeSaved(r isa.Reg) bool {
	return r >= firstCalleeSaved && r <= isa.RegTmpN
}

// Allocation is the result of register allocation for one function: every
// virtual register mentioned in the function is assigned either an
// architectural register or a spill slot.
type Allocation struct {
	// RegOf maps allocated virtual registers to architectural registers.
	RegOf map[ir.Reg]isa.Reg
	// SlotOf maps spilled virtual registers to frame word indices (relative
	// to the spill area, which codegen places after the local-array area).
	SlotOf map[ir.Reg]int
	// NumSlots is the number of spill slots used.
	NumSlots int
	// UsedRegs lists the architectural registers the function writes.
	UsedRegs []isa.Reg
}

// CalleeSavedUsed returns the callee-saved registers the function must
// preserve.
func (a *Allocation) CalleeSavedUsed() []isa.Reg {
	var out []isa.Reg
	for _, r := range a.UsedRegs {
		if IsCalleeSaved(r) {
			out = append(out, r)
		}
	}
	return out
}

// interval is a live interval in the linearized instruction order. An
// interval no position touched has end < 0.
type interval struct {
	reg        ir.Reg
	start, end int
	spansCall  bool
}

// Allocate performs linear-scan register allocation over the function.
//
// Intervals are built from block-level liveness: a register live into or out
// of a block extends across the whole block, which is conservative but
// correct in the presence of loops. Parameters are live from position 0
// (they arrive in the argument registers and are moved to their homes by the
// entry sequence codegen emits). Intervals spanning a call site may only
// live in callee-saved registers.
func Allocate(f *ir.Func) *Allocation {
	live := f.Liveness()

	// Linearize: number instructions block by block in layout order.
	// blockStart and blockEnd are indexed by block position.
	pos := 0
	blockStart := make([]int, len(f.Blocks))
	blockEnd := make([]int, len(f.Blocks))
	var callPos []int
	for i, b := range f.Blocks {
		blockStart[i] = pos
		for j := range b.Instrs {
			if b.Instrs[j].Op == ir.Call {
				callPos = append(callPos, pos+j)
			}
		}
		pos += len(b.Instrs) + 1 // +1 so empty blocks still occupy space
		blockEnd[i] = pos
	}

	// ivals is indexed by virtual register.
	ivals := make([]interval, f.NextReg)
	for r := range ivals {
		ivals[r] = interval{reg: ir.Reg(r), start: pos, end: -1}
	}
	touch := func(r ir.Reg, at int) {
		iv := &ivals[r]
		iv.start = min(iv.start, at)
		iv.end = max(iv.end, at)
	}
	var uses []ir.Reg
	for i, b := range f.Blocks {
		p := blockStart[i]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				touch(u, p)
			}
			if d := in.Def(); d != ir.NoReg {
				touch(d, p)
			}
			p++
		}
		for r := range live.In(b).All() {
			touch(r, blockStart[i])
		}
		for r := range live.Out(b).All() {
			touch(r, blockEnd[i])
		}
	}
	for _, pr := range f.Params {
		touch(pr, 0)
	}

	// order lists the touched intervals by start (callPos is ascending, so
	// the first call after an interval's start decides whether it spans one).
	order := make([]*interval, 0, len(ivals))
	for r := range ivals {
		iv := &ivals[r]
		if iv.end < 0 {
			continue
		}
		k, _ := slices.BinarySearch(callPos, iv.start+1)
		iv.spansCall = k < len(callPos) && callPos[k] < iv.end
		order = append(order, iv)
	}
	slices.SortFunc(order, func(a, b *interval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.reg, b.reg))
	})

	alloc := &Allocation{RegOf: make(map[ir.Reg]isa.Reg, len(order)), SlotOf: map[ir.Reg]int{}}
	type active struct {
		iv  *interval
		reg isa.Reg
	}
	var actives []active
	var freeCaller, freeCallee []isa.Reg
	for r := isa.RegTmp0; r <= isa.RegTmpN; r++ {
		if IsCalleeSaved(r) {
			freeCallee = append(freeCallee, r)
		} else {
			freeCaller = append(freeCaller, r)
		}
	}
	var usedSet [isa.RegTmpN + 1]bool

	expire := func(at int) {
		kept := actives[:0]
		for _, a := range actives {
			if a.iv.end < at {
				if IsCalleeSaved(a.reg) {
					freeCallee = append(freeCallee, a.reg)
				} else {
					freeCaller = append(freeCaller, a.reg)
				}
			} else {
				kept = append(kept, a)
			}
		}
		actives = kept
	}

	spill := func(iv *interval) {
		alloc.SlotOf[iv.reg] = alloc.NumSlots
		alloc.NumSlots++
	}

	take := func(pool *[]isa.Reg, iv *interval) {
		// Shift in place so released registers reuse the pool's array.
		r := (*pool)[0]
		*pool = append((*pool)[:0], (*pool)[1:]...)
		alloc.RegOf[iv.reg] = r
		usedSet[r] = true
		actives = append(actives, active{iv, r})
	}

	for _, iv := range order {
		expire(iv.start)
		if iv.spansCall {
			if len(freeCallee) > 0 {
				take(&freeCallee, iv)
				continue
			}
			// Steal a callee-saved register from the active interval with
			// the furthest end, if it outlasts this one.
			victim := -1
			for i, a := range actives {
				if !IsCalleeSaved(a.reg) {
					continue
				}
				if victim == -1 || a.iv.end > actives[victim].iv.end {
					victim = i
				}
			}
			if victim >= 0 && actives[victim].iv.end > iv.end {
				v := actives[victim]
				spill(v.iv)
				delete(alloc.RegOf, v.iv.reg)
				alloc.RegOf[iv.reg] = v.reg
				actives[victim] = active{iv, v.reg}
			} else {
				spill(iv)
			}
			continue
		}
		// Non-spanning: any register works; prefer caller-saved.
		if len(freeCaller) > 0 {
			take(&freeCaller, iv)
			continue
		}
		if len(freeCallee) > 0 {
			take(&freeCallee, iv)
			continue
		}
		// Steal from the active interval with the furthest end whose
		// register this interval may use (any), provided the victim is not
		// call-spanning in a caller-saved slot (impossible by
		// construction) and outlasts the new interval.
		victim := -1
		for i, a := range actives {
			if a.iv.spansCall && !IsCalleeSaved(a.reg) {
				continue // defensive; cannot happen
			}
			// Stealing a callee-saved reg from a spanning interval would
			// force the victim to spill, which is fine.
			if victim == -1 || a.iv.end > actives[victim].iv.end {
				victim = i
			}
		}
		if victim >= 0 && actives[victim].iv.end > iv.end {
			v := actives[victim]
			spill(v.iv)
			delete(alloc.RegOf, v.iv.reg)
			alloc.RegOf[iv.reg] = v.reg
			actives[victim] = active{iv, v.reg}
		} else {
			spill(iv)
		}
	}

	for r := isa.RegTmp0; r <= isa.RegTmpN; r++ {
		if usedSet[r] {
			alloc.UsedRegs = append(alloc.UsedRegs, r)
		}
	}
	return alloc
}
