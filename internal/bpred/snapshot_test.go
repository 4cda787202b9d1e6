package bpred

import (
	"math/rand"
	"testing"

	"bsisa/internal/isa"
)

// predStream is a reproducible random training stream over a small block
// working set: conditional blocks for the conventional predictor, trap
// blocks with variant-group successors for the BSA predictor.
type predStream struct {
	rng    *rand.Rand
	blocks []*isa.Block
}

func newPredStream(seed int64, bsa bool) *predStream {
	s := &predStream{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 8; i++ {
		addr := uint32(0x1000 + i*0x40)
		if bsa {
			base := isa.BlockID(10 * (i + 1))
			s.blocks = append(s.blocks, trapBlock(addr,
				[]isa.BlockID{base, base + 1, base + 2},
				[]isa.BlockID{base + 3, base + 4}))
		} else {
			b := condBlock(addr)
			b.ID = isa.BlockID(100 + i)
			b.Succs = []isa.BlockID{isa.BlockID(2 * i), isa.BlockID(2*i + 1)}
			s.blocks = append(s.blocks, b)
		}
	}
	return s
}

// step picks one random training event: a block, a committed successor, and
// the direction/index pair Update wants.
func (s *predStream) step() (b *isa.Block, actual isa.BlockID, taken bool, succIdx int) {
	b = s.blocks[s.rng.Intn(len(s.blocks))]
	succIdx = s.rng.Intn(len(b.Succs))
	actual = b.Succs[succIdx]
	taken = succIdx < b.TakenCount
	return b, actual, taken, succIdx
}

// drive runs n Predict+Update steps and returns the prediction sequence.
func drive(p Predictor, s *predStream, n int) []isa.BlockID {
	out := make([]isa.BlockID, n)
	for i := range out {
		b, actual, taken, succIdx := s.step()
		out[i] = p.Predict(b)
		p.Update(b, actual, taken, succIdx)
	}
	return out
}

// checkRoundTrip is the snapshot property: capture mid-stream, observe the
// suffix behavior, let the live predictor diverge on garbage, restore, and
// replay the same suffix — predictions and final stats must be identical.
func checkRoundTrip(t *testing.T, p Predictor, bsa bool) {
	t.Helper()
	warm := newPredStream(1, bsa)
	drive(p, warm, 500)

	st := p.Snapshot()
	suffix := newPredStream(2, bsa)
	want := drive(p, suffix, 300)
	wantStats := p.Stats()

	// Diverge: different stream, so tables, history, and counters all move.
	drive(p, newPredStream(3, bsa), 400)

	if err := p.Restore(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	suffix = newPredStream(2, bsa)
	got := drive(p, suffix, 300)
	gotStats := p.Stats()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d after restore: %d, want %d", i, got[i], want[i])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("stats after restored replay %+v, want %+v", gotStats, wantStats)
	}

	// The snapshot is reusable: a second restore rewinds again.
	if err := p.Restore(st); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if got := drive(p, newPredStream(2, bsa), 300); got[len(got)-1] != want[len(want)-1] {
		t.Fatal("snapshot not reusable for a second restore")
	}
}

func TestTwoLevelSnapshotRoundTrip(t *testing.T) {
	checkRoundTrip(t, NewTwoLevel(Config{HistoryBits: 6, PHTEntries: 256, BTBSets: 16, BTBWays: 2, RASDepth: 4}), false)
}

func TestBSASnapshotRoundTrip(t *testing.T) {
	checkRoundTrip(t, NewBSA(Config{HistoryBits: 6, PHTEntries: 256, BTBSets: 16, BTBWays: 2, RASDepth: 4}), true)
}

// TestBankSnapshotRoundTrip runs the property over the interleaved Bank:
// shared history plus per-lane predictors must all rewind together.
func TestBankSnapshotRoundTrip(t *testing.T) {
	for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
		cfgs := []Config{
			{HistoryBits: 6, PHTEntries: 256, BTBSets: 16, BTBWays: 2, RASDepth: 4},
			{HistoryBits: 4, PHTEntries: 128, BTBSets: 8, BTBWays: 2, RASDepth: 4},
		}
		bk := NewBank(kind == isa.BlockStructured, cfgs)
		bsa := kind == isa.BlockStructured
		out := make([]isa.BlockID, bk.Len())
		driveBank := func(s *predStream, n int) []isa.BlockID {
			var preds []isa.BlockID
			for i := 0; i < n; i++ {
				b, actual, taken, succIdx := s.step()
				bk.Step(b, actual, taken, succIdx, out)
				preds = append(preds, out...)
			}
			return preds
		}
		driveBank(newPredStream(1, bsa), 300)
		st := bk.Snapshot()
		want := driveBank(newPredStream(2, bsa), 200)
		driveBank(newPredStream(3, bsa), 250)
		if err := bk.Restore(st); err != nil {
			t.Fatalf("%v bank restore: %v", kind, err)
		}
		got := driveBank(newPredStream(2, bsa), 200)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v bank prediction %d after restore: %d, want %d", kind, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotRestoreMismatch requires Restore to reject snapshots from a
// different predictor kind or geometry instead of silently reinterpreting
// tables.
func TestSnapshotRestoreMismatch(t *testing.T) {
	small := Config{HistoryBits: 6, PHTEntries: 256, BTBSets: 16, BTBWays: 2, RASDepth: 4}
	big := Config{HistoryBits: 6, PHTEntries: 512, BTBSets: 16, BTBWays: 2, RASDepth: 4}

	tl := NewTwoLevel(small)
	bsa := NewBSA(small)
	bank := NewBank(false, []Config{small})

	cases := []struct {
		name string
		err  error
	}{
		{"twolevel state into bsa", bsa.Restore(tl.Snapshot())},
		{"bsa state into twolevel", tl.Restore(bsa.Snapshot())},
		{"bank state into twolevel", tl.Restore(bank.Snapshot())},
		{"twolevel state into bank", bank.Restore(tl.Snapshot())},
		{"pht size mismatch", NewTwoLevel(big).Restore(tl.Snapshot())},
		// BSA divides PHT entries by four with a 1024-entry floor, so the
		// mismatching geometries must sit above the floor.
		{"bsa pht size mismatch", NewBSA(Config{PHTEntries: 32768}).Restore(NewBSA(Config{PHTEntries: 8192}).Snapshot())},
		{"bank lane count mismatch", NewBank(false, []Config{small, small}).Restore(bank.Snapshot())},
		{"bank kind mismatch", NewBank(true, []Config{small}).Restore(bank.Snapshot())},
		{"ras depth mismatch", func() error {
			other := small
			other.RASDepth = 8
			return NewTwoLevel(other).Restore(tl.Snapshot())
		}()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: restore accepted, want error", tc.name)
		}
	}
}
