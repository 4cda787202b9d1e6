package bpred

import (
	"testing"

	"bsisa/internal/isa"
)

// fuzzWorld builds a small synthetic CFG for driving the BSA predictor: a
// pool of trap-terminated variant-choice blocks plus one indirect jump, with
// distinct addresses so BTB entries do not alias by construction.
func fuzzWorld(shape []byte) []*isa.Block {
	if len(shape) == 0 {
		shape = []byte{0}
	}
	n := 4 + int(shape[0]%5) // 4..8 blocks
	blocks := make([]*isa.Block, n)
	for i := 0; i < n; i++ {
		b := isa.NewBlock(0)
		b.ID = isa.BlockID(i)
		b.Addr = uint32(0x1000 + 0x40*i)
		pick := byte(i)
		if i+1 < len(shape) {
			pick = shape[i+1]
		}
		nSuccs := 2 + int(pick%7) // 2..8 successors
		for s := 0; s < nSuccs; s++ {
			b.Succs = append(b.Succs, isa.BlockID((i+s+1)%n))
		}
		if pick&0x40 != 0 {
			// Indirect jump block: all successors discovered via the BTB.
			b.Ops = []isa.Op{{Opcode: isa.JR}}
			b.TakenCount = 0
		} else {
			b.Ops = []isa.Op{{Opcode: isa.TRAP}}
			b.TakenCount = 1 + int(pick>>3)%(nSuccs-1)
		}
		b.RecomputeHistBits()
		blocks[i] = b
	}
	return blocks
}

// FuzzPredictor drives a BSA predictor, and a one-lane Bank of the same
// configuration beside it, through a block/outcome sequence decoded from the
// fuzz input and checks the predictor's contract at every step:
//
//   - a prediction is either NoBlock or one of the block's successors;
//   - the predictor is deterministic, and the sweep's Bank path (a shared
//     history register) predicts exactly what the live predictor does;
//   - BTB misses never exceed lookups (the JR stats symmetry bug class);
//   - stats counters never decrease.
func FuzzPredictor(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x10, 0x44, 0x85, 0xff, 0x00, 0x31})
	f.Add([]byte{0x04, 0x47, 0x47, 0x47, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		world := fuzzWorld(data[:len(data)/2])
		drive := data[len(data)/2:]
		a := NewBSA(Config{})
		bank := NewBank(true, []Config{{}})
		mirror := make([]isa.BlockID, 1)
		var prev Stats
		for _, step := range drive {
			blk := world[int(step)%len(world)]
			oi := int(step>>2) % len(blk.Succs)
			actual := blk.Succs[oi]
			taken := oi < blk.TakenCount
			got := a.Step(blk, actual, taken, oi)
			bank.Step(blk, actual, taken, oi, mirror)
			if mirror[0] != got {
				t.Fatalf("B%d: predictor and bank diverged: %d vs %d", blk.ID, got, mirror[0])
			}
			if got != isa.NoBlock && blk.SuccIndex(got) < 0 {
				t.Fatalf("B%d: predicted B%d, not a successor of %v", blk.ID, got, blk.Succs)
			}

			s := a.Stats()
			if s.BTBMisses > s.Lookups {
				t.Fatalf("B%d: BTBMisses %d exceeds Lookups %d", blk.ID, s.BTBMisses, s.Lookups)
			}
			if s.Lookups < prev.Lookups || s.BTBMisses < prev.BTBMisses || s.RASReturns < prev.RASReturns {
				t.Fatalf("B%d: stats went backwards: %+v -> %+v", blk.ID, prev, s)
			}
			prev = s
		}
	})
}
