// Predictors: exercise the paper's §4.3 modified Two-Level Adaptive
// predictor directly. An enlarged atomic block can have up to eight
// successors (variant sets); the predictor selects among them with a
// three-bit prediction (one trap counter + two fault counters) and shifts a
// variable number of history bits per block. This example feeds both
// predictors synthetic outcome streams and reports their accuracy, then
// shows end-to-end misprediction behavior on a real workload.
//
//	go run ./examples/predictors
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bsisa/internal/bpred"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// syntheticBlock builds a BSA block with two variants per trap direction.
// The successor count must respect the §4.3 BTB invariant (at most
// bpred.MaxTargets variants per block), or the predictor's target selection
// is undefined — fail loudly rather than report garbage accuracies.
func syntheticBlock(addr uint32) *isa.Block {
	b := isa.NewBlock(0)
	b.Addr = addr
	b.Ops = []isa.Op{{Opcode: isa.TRAP, Rs1: 5}}
	b.Succs = []isa.BlockID{10, 11, 20, 21}
	b.TakenCount = 2
	b.RecomputeHistBits()
	if len(b.Succs) > bpred.MaxTargets {
		log.Fatalf("synthetic block has %d successors, beyond the §4.3 limit of %d",
			len(b.Succs), bpred.MaxTargets)
	}
	return b
}

func main() {
	fmt.Println("== part 1: the multi-successor predictor on synthetic streams ==")
	fmt.Println()
	fmt.Printf("%-34s %10s\n", "stream", "accuracy")

	streams := []struct {
		name string
		next func(r *rand.Rand, i int) (isa.BlockID, bool)
	}{
		{"always variant 10 (taken)", func(r *rand.Rand, i int) (isa.BlockID, bool) { return 10, true }},
		{"periodic 10,11,20 pattern", func(r *rand.Rand, i int) (isa.BlockID, bool) {
			switch i % 3 {
			case 0:
				return 10, true
			case 1:
				return 11, true
			default:
				return 20, false
			}
		}},
		{"random uniform over 4 variants", func(r *rand.Rand, i int) (isa.BlockID, bool) {
			v := []isa.BlockID{10, 11, 20, 21}[r.Intn(4)]
			return v, v < 20
		}},
		{"90% variant 10, else random", func(r *rand.Rand, i int) (isa.BlockID, bool) {
			if r.Intn(10) != 0 {
				return 10, true
			}
			v := []isa.BlockID{11, 20, 21}[r.Intn(3)]
			return v, v < 20
		}},
	}
	pcfg := bpred.Config{}
	if err := pcfg.Validate(); err != nil {
		log.Fatal(err)
	}
	for _, s := range streams {
		p := bpred.NewBSA(pcfg)
		b := syntheticBlock(0x4000)
		r := rand.New(rand.NewSource(7))
		correct, total := 0, 0
		for i := 0; i < 20000; i++ {
			actual, taken := s.next(r, i)
			if p.Step(b, actual, taken, b.SuccIndex(actual)) == actual {
				correct++
			}
			total++
		}
		fmt.Printf("%-34s %9.1f%%\n", s.name, 100*float64(correct)/float64(total))
	}

	fmt.Println()
	fmt.Println("== part 2: end-to-end misprediction behavior (perl profile) ==")
	fmt.Println()
	prof, _ := workload.ProfileByName("perl", 0.1)
	src, err := workload.Source(prof)
	if err != nil {
		log.Fatal(err)
	}
	conv, err := compile.Compile(src, prof.Name, compile.DefaultOptions(isa.Conventional))
	if err != nil {
		log.Fatal(err)
	}
	bsa, err := compile.Compile(src, prof.Name, compile.DefaultOptions(isa.BlockStructured))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.Enlarge(bsa, core.Params{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %12s %12s %12s %12s %12s\n",
		"history", "conv mispr", "conv cycles", "bsa trap", "bsa fault", "bsa cycles")
	for _, hist := range []int{2, 4, 8, 12} {
		cfg := uarch.Config{}
		cfg.Predictor.HistoryBits = hist
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		rc, _, err := uarch.RunProgram(conv, cfg, emu.Config{})
		if err != nil {
			log.Fatal(err)
		}
		rb, _, err := uarch.RunProgram(bsa, cfg, emu.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %12d %12d %12d %12d %12d\n",
			hist, rc.Mispredicts(), rc.Cycles, rb.TrapMispredicts, rb.FaultMispredicts, rb.Cycles)
	}
	fmt.Println("\nFault mispredictions (right trap direction, wrong enlarged variant)")
	fmt.Println("squash the whole atomic block — the committed work re-executes in the")
	fmt.Println("sibling variant, which is why the paper found mispredictions costlier")
	fmt.Println("for block-structured ISAs (its Figure 3 vs Figure 4 gap).")
}
