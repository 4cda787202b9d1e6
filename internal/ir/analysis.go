package ir

import (
	"iter"
	"math/bits"
)

// RegSet is a dense set of virtual registers: register r is a member when
// bit r%64 of word r/64 is set. A function's sets span Func.NextReg
// registers.
type RegSet []uint64

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }

// Add puts r in the set.
func (s RegSet) Add(r Reg) { s[r/64] |= 1 << (uint(r) % 64) }

// All yields the members in increasing order.
func (s RegSet) All() iter.Seq[Reg] {
	return func(yield func(Reg) bool) {
		for i, w := range s {
			for w != 0 {
				if !yield(Reg(i*64 + bits.TrailingZeros64(w))) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// LiveSets holds per-block liveness, indexed by block position. Block.ID is
// that position: Func.Renumber restores it after blocks are removed, and
// Module.Validate checks it.
type LiveSets struct {
	in, out []RegSet
}

// In returns the virtual registers live on entry to b.
func (ls *LiveSets) In(b *Block) RegSet { return ls.in[b.ID] }

// Out returns the virtual registers live on exit from b.
func (ls *LiveSets) Out(b *Block) RegSet { return ls.out[b.ID] }

// Liveness computes live-in/live-out sets by iterative backward dataflow.
// Every block's four sets (live-in, live-out, upward-exposed uses, defs) are
// cut from one slab.
func (f *Func) Liveness() *LiveSets {
	n := len(f.Blocks)
	w := (int(f.NextReg) + 63) / 64
	slab := make([]uint64, 4*n*w)
	sets := make([]RegSet, 4*n)
	for i := range sets {
		sets[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	ls := &LiveSets{in: sets[:n], out: sets[n : 2*n]}
	use, def := sets[2*n:3*n], sets[3*n:]
	var uses []Reg
	for i, b := range f.Blocks {
		u, d := use[i], def[i]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			uses = in.Uses(uses[:0])
			for _, r := range uses {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if dr := in.Def(); dr != NoReg {
				d.Add(dr)
			}
		}
	}
	// live-out is the union of the successors' live-in, live-in is
	// use | (live-out &^ def). Both only grow, so a sweep that changes no
	// live-in set has reached the least fixed point.
	for changed := true; changed; {
		changed = false
		// Backward order converges faster; any order is correct.
		for i := n - 1; i >= 0; i-- {
			out, in := ls.out[i], ls.in[i]
			for _, s := range f.Blocks[i].Succs {
				for k, x := range ls.in[s.ID] {
					out[k] |= x
				}
			}
			for k := range in {
				if x := use[i][k] | out[k]&^def[i][k]; x != in[k] {
					in[k] = x
					changed = true
				}
			}
		}
	}
	return ls
}
