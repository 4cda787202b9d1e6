package ir

import (
	"iter"
	"math/bits"
)

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder of a depth-first search. Unreachable blocks are omitted.
func (f *Func) ReversePostorder() []*Block {
	var post []*Block
	visited := make(map[*Block]bool, len(f.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		visited[b] = true
		for _, s := range b.Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate dominator of every reachable block using
// the Cooper/Harvey/Kennedy iterative algorithm. The entry's idom is itself.
func (f *Func) Dominators() map[*Block]*Block {
	rpo := f.ReversePostorder()
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	idom[f.Entry] = f.Entry
	f.ComputePreds()

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == f.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given an idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}

// BackEdge is a CFG edge whose head dominates its tail: the defining edge of
// a natural loop.
type BackEdge struct {
	From *Block // loop latch
	To   *Block // loop header
}

// BackEdges returns the natural-loop back edges of the function. The block
// enlargement optimization uses this to avoid combining separate loop
// iterations (paper rule 4).
func (f *Func) BackEdges() []BackEdge {
	idom := f.Dominators()
	var edges []BackEdge
	for _, b := range f.ReversePostorder() {
		for _, s := range b.Succs {
			if Dominates(idom, s, b) {
				edges = append(edges, BackEdge{From: b, To: s})
			}
		}
	}
	return edges
}

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
