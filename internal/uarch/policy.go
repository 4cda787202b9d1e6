package uarch

import (
	"bsisa/internal/isa"
)

// This file is the timing side of the backend fetch policy
// (backend.Policy): predictor selection lives in New and the sweep, while
// the BasicBlocker serialization and the macro-op fusion patterns defined
// here are baked into the predecoded table (kernel.go's flatten).

// serializesFetch reports whether a terminator's transfer only resolves at
// execute — conditionally (BR) or indirectly (JR, RET). Under
// Policy.SerializeControl the front end never speculates past one: fetch
// waits for the terminator and then refills the pipeline, exactly like a
// misprediction recovery but paid on every such block.
func serializesFetch(t *isa.Op) bool {
	if t == nil {
		// Fall-through: the next block is sequential, known at decode.
		return false
	}
	switch t.Opcode {
	case isa.BR, isa.JR, isa.RET:
		return true
	}
	return false
}

// fusePairs appends to dst the indices at which a macro-op pair starts in
// ops (each pair spans ops i and i+1; pairs never overlap). It scans greedily
// for adjacent dependent pairs matching the fusion patterns: left to right
// matches the hardware, whose decode sees the ops in order and fuses the
// first opportunity in each pair of slots. Fusion is a decode-time rewrite
// of static code, so flatten applies it once per block.
func fusePairs(dst []int, ops []isa.Op) []int {
	for i := 0; i+1 < len(ops); i++ {
		if fusible(&ops[i], &ops[i+1]) {
			dst = append(dst, i)
			i++
		}
	}
	return dst
}

// fusible reports whether op a feeds op b in one of the fused patterns
// (Celio et al., "The Renewed Case for the Reduced Instruction Set
// Computer"): compare-and-branch, load-immediate-pair, and address
// generation feeding a load or an indexed add.
func fusible(a, b *isa.Op) bool {
	rd, ok := a.Writes()
	if !ok || rd == isa.RegZero || !readsReg(b, rd) {
		return false
	}
	switch a.Opcode {
	case isa.SLT, isa.SLE, isa.SEQ, isa.SNE, isa.SLTI:
		return b.Opcode == isa.BR
	case isa.LUI:
		return b.Opcode == isa.ADDI
	case isa.ADD, isa.ADDI, isa.SHLI:
		if b.Opcode == isa.LD {
			return true
		}
		return a.Opcode == isa.SHLI && b.Opcode == isa.ADD
	}
	return false
}

func readsReg(o *isa.Op, r isa.Reg) bool {
	reads, n := o.ReadRegs()
	for k := 0; k < n; k++ {
		if reads[k] == r {
			return true
		}
	}
	return false
}
