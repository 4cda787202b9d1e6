package bpred

import (
	"errors"
	"math/rand"
	"testing"

	"bsisa/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{}, // zero config takes defaults
		{HistoryBits: 16, PHTEntries: 1024, BTBSets: 64, BTBWays: 2, RASDepth: 4},
		{HistoryBits: 32},
		{PHTEntries: 1},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{HistoryBits: -1},
		{HistoryBits: 33}, // beyond the 32-bit BHR
		{PHTEntries: 3000},
		{PHTEntries: -8},
		{BTBSets: 48},
		{BTBWays: -1},
		{RASDepth: -2},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, cfg)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: error %v does not match ErrBadConfig", i, err)
		}
	}
}

// callRetPair builds a CALL block (continuation cont) and a RET block.
func callRetPair(addr uint32, callee, cont isa.BlockID) (*isa.Block, *isa.Block) {
	call := isa.NewBlock(0)
	call.Addr = addr
	call.Ops = []isa.Op{{Opcode: isa.CALL, Target: callee}}
	call.Succs = []isa.BlockID{callee}
	call.Cont = cont
	ret := isa.NewBlock(0)
	ret.Addr = addr + 0x100
	ret.Ops = []isa.Op{{Opcode: isa.RET, Rs1: isa.RegLR}}
	return call, ret
}

// bankGrid is a mixed predictor grid: history length, PHT size, BTB geometry
// and RAS depth all vary, like the sweeps the fused engine serves.
func bankGrid() []Config {
	return []Config{
		{}, // defaults
		{HistoryBits: 1},
		{HistoryBits: 16, PHTEntries: 1024},
		{HistoryBits: 4, BTBSets: 64, BTBWays: 2},
		{HistoryBits: 12, PHTEntries: 4096, BTBSets: 128, RASDepth: 4},
		{HistoryBits: 32, PHTEntries: 65536},
	}
}

// convEvent/bsaEvent drive one random committed control event against a
// predictor, returning its prediction (for the lockstep comparison).
type streamEvent struct {
	b       *isa.Block
	actual  isa.BlockID
	taken   bool
	succIdx int
}

// convStream generates a random conventional committed stream over
// conditional branches, an indirect jump, and call/return pairs.
func convStream(r *rand.Rand, n int) []streamEvent {
	conds := []*isa.Block{condBlock(0x1000), condBlock(0x2000), condBlock(0x2040)}
	jr := jrBlock(0x3000)
	call, ret := callRetPair(0x4000, 50, 7)
	evs := make([]streamEvent, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			target := isa.BlockID(60 + r.Intn(3))
			evs = append(evs, streamEvent{b: jr, actual: target, taken: true, succIdx: -1})
		case 1:
			evs = append(evs, streamEvent{b: call, actual: 50, taken: true, succIdx: 0})
			evs = append(evs, streamEvent{b: ret, actual: 7, taken: true, succIdx: -1})
		default:
			b := conds[r.Intn(len(conds))]
			taken := r.Intn(3) != 0
			actual := b.Succs[1]
			if taken {
				actual = b.Succs[0]
			}
			evs = append(evs, streamEvent{b: b, actual: actual, taken: taken, succIdx: b.SuccIndex(actual)})
		}
	}
	return evs
}

// bsaStream generates a random block-structured committed stream over trap
// blocks with multi-variant groups (variable HistBits), plus call/returns.
func bsaStream(r *rand.Rand, n int) []streamEvent {
	traps := []*isa.Block{
		trapBlock(0x1000, []isa.BlockID{10, 11}, []isa.BlockID{20}),
		trapBlock(0x2000, []isa.BlockID{10, 11, 12, 13}, []isa.BlockID{20, 21, 22, 23}),
		trapBlock(0x2100, []isa.BlockID{30}, []isa.BlockID{40}),
	}
	call, ret := callRetPair(0x4000, 50, 7)
	evs := make([]streamEvent, 0, n)
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			evs = append(evs, streamEvent{b: call, actual: 50, taken: true, succIdx: 0})
			evs = append(evs, streamEvent{b: ret, actual: 7, taken: true, succIdx: -1})
			continue
		}
		b := traps[r.Intn(len(traps))]
		idx := r.Intn(len(b.Succs))
		evs = append(evs, streamEvent{b: b, actual: b.Succs[idx], taken: idx < b.TakenCount, succIdx: idx})
	}
	return evs
}

// TestBankMatchesSingles is the lockstep property test: a Bank over a mixed
// grid must emit, per event and per lane, exactly the prediction an
// independent standalone predictor of that lane's configuration emits, and
// finish with identical stats.
func TestBankMatchesSingles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   isa.Kind
		stream func(*rand.Rand, int) []streamEvent
	}{
		{"conv", isa.Conventional, convStream},
		{"bsa", isa.BlockStructured, bsaStream},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				cfgs := bankGrid()
				bank := NewBank(tc.kind == isa.BlockStructured, cfgs)
				singles := make([]Predictor, len(cfgs))
				for i, cfg := range cfgs {
					if tc.kind == isa.BlockStructured {
						singles[i] = NewBSA(cfg)
					} else {
						singles[i] = NewTwoLevel(cfg)
					}
				}
				evs := tc.stream(rand.New(rand.NewSource(seed)), 3000)
				out := make([]isa.BlockID, bank.Len())
				for ei, ev := range evs {
					bank.Step(ev.b, ev.actual, ev.taken, ev.succIdx, out)
					for l, p := range singles {
						want := p.Predict(ev.b)
						p.Update(ev.b, ev.actual, ev.taken, ev.succIdx)
						if out[l] != want {
							t.Fatalf("seed %d event %d lane %d: bank predicts %d, single predicts %d",
								seed, ei, l, out[l], want)
						}
					}
				}
				for l, p := range singles {
					if got, want := bank.LaneStats(l), p.Stats(); got != want {
						t.Fatalf("seed %d lane %d stats diverge:\nbank   %+v\nsingle %+v", seed, l, got, want)
					}
				}
			}
		})
	}
}

// TestBankStepAllocs pins the Bank hot path at zero steady-state
// allocations: after warmup (BTB target slices at capacity), stepping the
// whole grid through a long stream must not allocate.
func TestBankStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   isa.Kind
		stream func(*rand.Rand, int) []streamEvent
	}{
		{"conv", isa.Conventional, convStream},
		{"bsa", isa.BlockStructured, bsaStream},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bank := NewBank(tc.kind == isa.BlockStructured, bankGrid())
			evs := tc.stream(rand.New(rand.NewSource(9)), 2000)
			out := make([]isa.BlockID, bank.Len())
			step := func() {
				for _, ev := range evs {
					bank.Step(ev.b, ev.actual, ev.taken, ev.succIdx, out)
				}
			}
			step() // warmup: BTB entries allocate their target slices once
			if avg := testing.AllocsPerRun(5, step); avg > 0 {
				t.Errorf("Bank.Step allocates %.1f times per %d-event stream after warmup", avg, len(evs))
			}
		})
	}
}
