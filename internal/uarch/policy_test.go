package uarch

import (
	"fmt"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// op builds a three-register ALU op for the fusion-pattern table.
func op(opc isa.Opcode, rd, rs1, rs2 isa.Reg) isa.Op {
	return isa.Op{Opcode: opc, Rd: rd, Rs1: rs1, Rs2: rs2}
}

// TestFusePairsPatterns pins the decode-time fusion patterns (Celio et al.):
// each fusible pair requires the second op to read the first's non-zero
// destination.
func TestFusePairsPatterns(t *testing.T) {
	r1, r2, r3 := isa.Reg(5), isa.Reg(6), isa.Reg(7)
	cases := []struct {
		name string
		ops  []isa.Op
		want []int
	}{
		{"compare-branch", []isa.Op{
			op(isa.SLT, r1, r2, r3),
			{Opcode: isa.BR, Rs1: r1, Target: 1},
		}, []int{0}},
		{"load-immediate", []isa.Op{
			{Opcode: isa.LUI, Rd: r1, Imm: 4096},
			{Opcode: isa.ADDI, Rd: r1, Rs1: r1, Imm: 12},
		}, []int{0}},
		{"address-gen-load", []isa.Op{
			op(isa.ADD, r1, r2, r3),
			{Opcode: isa.LD, Rd: r2, Rs1: r1},
		}, []int{0}},
		{"shift-add-index", []isa.Op{
			{Opcode: isa.SHLI, Rd: r1, Rs1: r2, Imm: 3},
			op(isa.ADD, r3, r1, r2),
		}, []int{0}},
		{"no dependency", []isa.Op{
			op(isa.SLT, r1, r2, r3),
			{Opcode: isa.BR, Rs1: r2, Target: 1},
		}, nil},
		{"zero-reg dest never fuses", []isa.Op{
			op(isa.SLT, isa.RegZero, r2, r3),
			{Opcode: isa.BR, Rs1: isa.RegZero, Target: 1},
		}, nil},
		{"greedy non-overlapping", []isa.Op{
			{Opcode: isa.LUI, Rd: r1, Imm: 1},
			{Opcode: isa.ADDI, Rd: r1, Rs1: r1, Imm: 2}, // fuses with 0
			{Opcode: isa.ADDI, Rd: r2, Rs1: r1, Imm: 3}, // 1 is taken; no pair
			{Opcode: isa.LD, Rd: r3, Rs1: r2},           // fuses with 2
		}, []int{0, 2}},
	}
	for _, tc := range cases {
		got := fusePairs(nil, tc.ops)
		if len(got) != len(tc.want) {
			t.Errorf("%s: pairs %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: pairs %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// TestPackOpFusedPairs pins how the predecoded table encodes each fusion
// pattern: a pair is one op that reads the first op's sources plus the
// second's other than the first's destination, writes both destinations,
// takes the slower latency, and carries the second op's flags.
func TestPackOpFusedPairs(t *testing.T) {
	r5, r6, r7, r8 := isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
	sink := isa.Reg(laneRegSink)
	cases := []struct {
		name   string
		a, b   isa.Op
		reads  []isa.Reg
		writes [2]isa.Reg
		flags  uint8
	}{
		{"compare-branch", op(isa.SLT, r5, r6, r7), isa.Op{Opcode: isa.BR, Rs1: r5, Target: 1},
			[]isa.Reg{r6, r7}, [2]isa.Reg{r5, sink}, laneTerm},
		{"load-immediate", isa.Op{Opcode: isa.LUI, Rd: r5, Imm: 4096}, isa.Op{Opcode: isa.ADDI, Rd: r5, Rs1: r5, Imm: 12},
			nil, [2]isa.Reg{r5, r5}, 0},
		{"address-gen-load", op(isa.ADD, r5, r6, r7), isa.Op{Opcode: isa.LD, Rd: r8, Rs1: r5},
			[]isa.Reg{r6, r7}, [2]isa.Reg{r5, r8}, laneLD},
		{"shift-add-index", isa.Op{Opcode: isa.SHLI, Rd: r5, Rs1: r6, Imm: 3}, op(isa.ADD, r7, r5, r8),
			[]isa.Reg{r6, r8}, [2]isa.Reg{r5, r7}, 0},
	}
	for _, tc := range cases {
		if !fusible(&tc.a, &tc.b) {
			t.Fatalf("%s: pattern not fusible", tc.name)
		}
		o := packOp(&tc.a, &tc.b)
		var reads []isa.Reg
		for k := 0; k < 3; k++ {
			if r := isa.Reg(uint8(o >> (8 * k))); r != isa.RegZero {
				reads = append(reads, r)
			}
		}
		if fmt.Sprint(reads) != fmt.Sprint(tc.reads) {
			t.Errorf("%s: reads %v, want %v", tc.name, reads, tc.reads)
		}
		if w := [2]isa.Reg{isa.Reg(uint8(o >> 24)), isa.Reg(uint8(o >> 32))}; w != tc.writes {
			t.Errorf("%s: writes %v, want %v", tc.name, w, tc.writes)
		}
		if f := uint8(o >> 40); f != tc.flags {
			t.Errorf("%s: flags %b, want %b", tc.name, f, tc.flags)
		}
		if lat, want := int(o>>48), max(tc.a.Opcode.Latency(), tc.b.Opcode.Latency()); lat != want {
			t.Errorf("%s: latency %d, want %d", tc.name, lat, want)
		}
	}
}

// policyProgram compiles one randomized program for a backend's kind and runs
// its shaping pass.
func policyProgram(t *testing.T, seed int64, kind isa.Kind) *isa.Program {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "policy", compile.DefaultOptions(kind))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	be, ok := backend.ForKind(kind)
	if !ok {
		t.Fatalf("no backend for %v", kind)
	}
	if _, err := be.Shape(prog, core.Params{}); err != nil {
		t.Fatalf("seed %d: shape: %v", seed, err)
	}
	return prog
}

// TestPolicyPredictorSelection: the Sim's predictor follows the backend
// policy — two-level for conv/fused, the BSA predictor for bsa, none for bb.
func TestPolicyPredictorSelection(t *testing.T) {
	for _, tc := range []struct {
		kind     isa.Kind
		wantPred bool
	}{
		{isa.Conventional, true},
		{isa.BlockStructured, true},
		{isa.BasicBlocker, false},
		{isa.MacroFused, true},
	} {
		prog := policyProgram(t, 900, tc.kind)
		s, err := New(prog, Config{})
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if (s.pred != nil) != tc.wantPred {
			t.Errorf("%v: predictor present = %v, want %v", tc.kind, s.pred != nil, tc.wantPred)
		}
		if s.policy != backend.PolicyFor(tc.kind) {
			t.Errorf("%v: sim policy %+v, want backend policy", tc.kind, s.policy)
		}
	}
}

// TestSerializedFetchStalls: a basicblocker run with a real front end must
// pay control-serialization stalls (and only then — perfect prediction
// models an oracle front end and pays none), and the serialized machine can
// never beat the speculative conventional one on the same source.
func TestSerializedFetchStalls(t *testing.T) {
	seed := int64(901)
	bb := policyProgram(t, seed, isa.BasicBlocker)
	real, _, err := RunProgram(bb, Config{}, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if real.FetchStallControl == 0 {
		t.Error("real front end paid no control-serialization stalls")
	}
	perfect, _, err := RunProgram(bb, Config{PerfectBP: true}, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if perfect.FetchStallControl != 0 {
		t.Errorf("perfect front end paid %d serialization stalls", perfect.FetchStallControl)
	}
	if real.Cycles < perfect.Cycles {
		t.Errorf("serialized fetch (%d cycles) beat the oracle front end (%d)", real.Cycles, perfect.Cycles)
	}
}

// TestFusionIsArchitecturallyInvisible: the fused backend must retire exactly
// the operation and block counts the emulator commits — fusion changes
// timing, never architecture — while actually fusing pairs.
func TestFusionIsArchitecturallyInvisible(t *testing.T) {
	seed := int64(902)
	prog := policyProgram(t, seed, isa.MacroFused)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FusedPairs == 0 {
		t.Error("fused backend fused no pairs")
	}
	emuStats := tr.EmuResult().Stats
	if res.Ops != emuStats.Ops || res.Blocks != emuStats.Blocks {
		t.Errorf("retired %d ops/%d blocks, emulator committed %d/%d",
			res.Ops, res.Blocks, emuStats.Ops, emuStats.Blocks)
	}
	if res.FusedPairs*2 > res.Ops {
		t.Errorf("%d fused pairs exceed half of %d retired ops", res.FusedPairs, res.Ops)
	}
}
