package compile

import "bsisa/internal/ir"

// Optimize runs the middle-end optimization pipeline on the module:
// constant folding, copy propagation, dead code elimination and CFG
// simplification, iterated to a fixed point (bounded).
func Optimize(m *ir.Module) {
	for _, f := range m.Funcs {
		for i := 0; i < 8; i++ {
			changed := constFold(f)
			changed = copyProp(f) || changed
			changed = deadCode(f) || changed
			changed = simplifyCFG(f) || changed
			if !changed {
				break
			}
		}
	}
}

// defCount returns, per virtual register, the number of definitions in the
// function. Parameters count as defined at entry: a parameter reassigned
// once has TWO definitions, so the single-def sparse reasoning in constFold
// and copyProp must not treat the assignment as its only def (uses before
// the assignment read the incoming argument).
func defCount(f *ir.Func) []int32 {
	defs := make([]int32, f.NextReg)
	for _, p := range f.Params {
		defs[p]++
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defs[d]++
			}
		}
	}
	return defs
}

// regConsts holds the constant value of each virtual register constFold has
// proven constant.
type regConsts struct {
	val   []int64
	known []bool
}

func (c *regConsts) get(r ir.Reg) (int64, bool) {
	if r == ir.NoReg || !c.known[r] {
		return 0, false
	}
	return c.val[r], true
}

// constFold performs sparse constant propagation over single-def registers
// and folds constant expressions, including Br-on-constant.
func constFold(f *ir.Func) bool {
	defs := defCount(f)
	consts := &regConsts{val: make([]int64, f.NextReg), known: make([]bool, f.NextReg)}
	changed := false
	// Iterate to propagate chains (const -> add -> ...).
	for pass := 0; pass < 4; pass++ {
		grew := false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				d := in.Def()
				if d == ir.NoReg || defs[d] != 1 || consts.known[d] {
					continue
				}
				if v, ok := evalConst(in, consts); ok {
					consts.val[d], consts.known[d] = v, true
					if in.Op != ir.Const {
						*in = ir.Instr{Op: ir.Const, Dst: d, Imm: v, A: ir.NoReg, B: ir.NoReg}
						changed = true
					}
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	// Fold constant branches and switches into jumps.
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.Br:
			v, ok := consts.get(t.A)
			if !ok {
				continue
			}
			keep := b.Succs[0]
			if v == 0 {
				keep = b.Succs[1]
			}
			*t = ir.Instr{Op: ir.Jmp, A: ir.NoReg, Dst: ir.NoReg, B: ir.NoReg}
			b.Succs = []*ir.Block{keep}
			changed = true
		case ir.Switch:
			v, ok := consts.get(t.A)
			if !ok {
				continue
			}
			n := len(b.Succs) - 1
			keep := b.Succs[n] // default
			if idx := v - t.Imm; idx >= 0 && idx < int64(n) {
				keep = b.Succs[idx]
			}
			*t = ir.Instr{Op: ir.Jmp, A: ir.NoReg, Dst: ir.NoReg, B: ir.NoReg}
			b.Succs = []*ir.Block{keep}
			changed = true
		}
	}
	if changed {
		f.ComputePreds()
	}
	return changed
}

// evalConst evaluates an instruction whose operands are known constants.
func evalConst(in *ir.Instr, consts *regConsts) (int64, bool) {
	c := consts.get
	switch in.Op {
	case ir.Const:
		return in.Imm, true
	case ir.Copy:
		return c(in.A)
	case ir.Neg:
		if a, ok := c(in.A); ok {
			return -a, true
		}
	case ir.Not:
		if a, ok := c(in.A); ok {
			if a == 0 {
				return 1, true
			}
			return 0, true
		}
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		a, okA := c(in.A)
		bv, okB := c(in.B)
		if !okA || !okB {
			return 0, false
		}
		return evalBinary(in.Op, a, bv)
	}
	return 0, false
}

// evalBinary implements the IR's binary operator semantics; it is shared with
// the functional emulator's reference tests. Division by zero does not fold
// (left to runtime).
func evalBinary(op ir.Opc, a, b int64) (int64, bool) {
	bool2int := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.And:
		return a & b, true
	case ir.Or:
		return a | b, true
	case ir.Xor:
		return a ^ b, true
	case ir.Shl:
		return a << (uint64(b) & 63), true
	case ir.Shr:
		return a >> (uint64(b) & 63), true
	case ir.CmpEQ:
		return bool2int(a == b), true
	case ir.CmpNE:
		return bool2int(a != b), true
	case ir.CmpLT:
		return bool2int(a < b), true
	case ir.CmpLE:
		return bool2int(a <= b), true
	case ir.CmpGT:
		return bool2int(a > b), true
	case ir.CmpGE:
		return bool2int(a >= b), true
	}
	return 0, false
}

// copyProp replaces uses of single-def Copy destinations with their sources
// when the source is also single-def (so the value cannot change between the
// copy and the use).
func copyProp(f *ir.Func) bool {
	defs := defCount(f)
	// alias[r] is the source r copies, or NoReg.
	alias := make([]ir.Reg, f.NextReg)
	for r := range alias {
		alias[r] = ir.NoReg
	}
	aliases := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Copy && defs[in.Dst] == 1 && in.A != ir.NoReg && defs[in.A] == 1 {
				alias[in.Dst] = in.A
				aliases++
			}
		}
	}
	if aliases == 0 {
		return false
	}
	resolve := func(r ir.Reg) ir.Reg {
		seen := 0
		for {
			a := alias[r]
			if a == ir.NoReg || seen > aliases {
				return r
			}
			r = a
			seen++
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			sub := func(r ir.Reg) ir.Reg {
				if r == ir.NoReg {
					return r
				}
				if n := resolve(r); n != r {
					changed = true
					return n
				}
				return r
			}
			switch in.Op {
			case ir.Call:
				for j := range in.Args {
					in.Args[j] = sub(in.Args[j])
				}
			default:
				in.A = sub(in.A)
				in.B = sub(in.B)
			}
		}
	}
	return changed
}

// deadCode removes pure instructions whose results are never used.
func deadCode(f *ir.Func) bool {
	used := make([]bool, f.NextReg)
	var uses []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			uses = b.Instrs[i].Uses(uses[:0])
			for _, u := range uses {
				used[u] = true
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			d := in.Def()
			if in.Op.IsPure() && in.Op != ir.Nop && d != ir.NoReg && !used[d] {
				changed = true
				continue
			}
			if in.Op == ir.Nop {
				changed = true
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return changed
}

// simplifyCFG removes unreachable blocks, threads jumps through empty
// forwarding blocks, and merges straight-line block pairs.
func simplifyCFG(f *ir.Func) bool {
	changed := false

	// Thread jumps through trivial forwarding blocks (a lone Jmp).
	forward := func(b *ir.Block) *ir.Block {
		seen := 0
		for len(b.Instrs) == 1 && b.Instrs[0].Op == ir.Jmp && seen < len(f.Blocks) {
			n := b.Succs[0]
			if n == b {
				break
			}
			b = n
			seen++
		}
		return b
	}
	for _, b := range f.Blocks {
		for i, s := range b.Succs {
			if t := forward(s); t != s {
				b.Succs[i] = t
				changed = true
			}
		}
	}
	if t := forward(f.Entry); t != f.Entry {
		f.Entry = t
		changed = true
	}

	// Drop unreachable blocks.
	reach := map[*ir.Block]bool{}
	var stack []*ir.Block
	stack = append(stack, f.Entry)
	reach[f.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	if len(reach) != len(f.Blocks) {
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if reach[b] {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
		changed = true
	}
	f.ComputePreds()

	// Merge b -> s when b jumps to s and s has exactly one predecessor.
	for _, b := range f.Blocks {
		for {
			t := b.Term()
			if t == nil || t.Op != ir.Jmp {
				break
			}
			s := b.Succs[0]
			if s == b || len(s.Preds) != 1 || s == f.Entry {
				break
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			b.Succs = s.Succs
			s.Instrs = nil
			s.Succs = nil
			// Remove s from the block list.
			for i, bb := range f.Blocks {
				if bb == s {
					f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
					break
				}
			}
			f.ComputePreds()
			changed = true
		}
	}
	f.Renumber()
	f.ComputePreds()
	return changed
}
