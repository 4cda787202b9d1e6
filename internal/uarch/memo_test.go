package uarch

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// memoGrids are the grids a memo must serve exactly: those of
// TestSweepMatchesSimulateMany and TestSweepFolding.
func memoGrids() map[string][]Config {
	return map[string][]Config{
		"icache":                   sweepGrid(false),
		"icachePerfect":            sweepGrid(true),
		"pred":                     predGrid(1024),
		"predPerfectIC":            predGrid(0),
		"history×icache":           historyICacheGrid(false),
		"history×icache perfectBP": historyICacheGrid(true),
		"cross":                    crossGrid(),
	}
}

// runMemo sweeps cfgs through Run with memo, requiring the sweep route and
// the memo use want.
func runMemo(t *testing.T, label string, tr *emu.Trace, cfgs []Config, memo *OutcomeMemo, want MemoUse) []*Result {
	t.Helper()
	rs, route, err := Run(context.Background(), tr, cfgs, nil, memo)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if route.Engine != EngineSweep || route.Memo != want {
		t.Fatalf("%s: route %s with memo %s, want the sweep with memo %s", label, route.Engine, route.Memo, want)
	}
	return rs
}

// TestSweepMemoMatches is the memo's equivalence check: on every backend, a
// sweep that records the memo and a sweep served from it both equal a
// memo-less sweep field for field, over the icache, predictor,
// history×icache, perfect-BP and cross grids. A memo starts empty for each
// grid, so the first sweep records, and the second is served.
func TestSweepMemoMatches(t *testing.T) {
	for _, be := range backend.All() {
		kind := be.Kind()
		tr, err := emu.Record(workloadProgram(t, "li", 0.01, kind), emu.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", kind, err)
		}
		for name, cfgs := range memoGrids() {
			label := fmt.Sprintf("%s %s", kind, name)
			want, err := Sweep(tr, cfgs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			memo := NewOutcomeMemo(tr)
			equalResults(t, label+" recording", cfgs, runMemo(t, label, tr, cfgs, memo, MemoRecorded), want)
			equalResults(t, label+" served", cfgs, runMemo(t, label, tr, cfgs, memo, MemoServed), want)
			if n, limit := memo.Bytes(), tr.Footprint(); n == 0 || n > limit {
				t.Errorf("%s: memo holds %d B against a bound of %d B", label, n, limit)
			}
		}
	}
}

// TestSweepMemoPartial sweeps a grid whose classes the memo records only
// in part: the sweep runs the enrichment, records the classes it lacks, and
// the next sweep is served. A memo of another trace is ignored.
func TestSweepMemoPartial(t *testing.T) {
	for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
		tr, err := emu.Record(workloadProgram(t, "li", 0.01, kind), emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		full := historyICacheGrid(false)
		want, err := Sweep(tr, full)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewOutcomeMemo(tr)
		// An icache sweep's default predictor is one of the grid's four
		// classes, the 8-bit history, over the same profiled range.
		icache := []Config{{ICache: cache.Config{SizeBytes: 0, Ways: 4}}, {ICache: cache.Config{SizeBytes: 4096, Ways: 4}},
			{ICache: cache.Config{SizeBytes: 1024, Ways: 4}}}
		runMemo(t, "icache", tr, icache, memo, MemoRecorded)
		runMemo(t, "icache again", tr, icache, memo, MemoServed)
		before := memo.Bytes()
		equalResults(t, "partial", full, runMemo(t, "partial", tr, full, memo, MemoRecorded), want)
		if memo.Bytes() <= before {
			t.Errorf("a partly recorded sweep kept nothing: %d B, then %d B", before, memo.Bytes())
		}
		equalResults(t, "served", full, runMemo(t, "served", tr, full, memo, MemoServed), want)

		other, err := emu.Record(workloadProgram(t, "li", 0.01, kind), emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "other trace", full, runMemo(t, "other trace", other, full, memo, MemoAbsent), want)
	}
}

// TestSweepMemoConcurrent runs sweeps of one trace concurrently against one
// memo, some recording and some served: every answer equals a memo-less
// sweep's. Run it with -race.
func TestSweepMemoConcurrent(t *testing.T) {
	tr, err := emu.Record(workloadProgram(t, "li", 0.01, isa.BlockStructured), emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	grids := [][]Config{sweepGrid(false), historyICacheGrid(false), crossGrid()}
	want := make([][]*Result, len(grids))
	for g, cfgs := range grids {
		if want[g], err = Sweep(tr, cfgs); err != nil {
			t.Fatal(err)
		}
	}
	memo := NewOutcomeMemo(tr)
	var wg sync.WaitGroup
	for round := range 2 {
		for g := range grids {
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, _, err := Run(context.Background(), tr, grids[g], nil, memo)
					if err != nil {
						t.Error(err)
						return
					}
					equalResults(t, fmt.Sprintf("round %d grid %d", round, g), grids[g], got, want[g])
				}()
			}
		}
		wg.Wait()
	}
	for g, cfgs := range grids {
		equalResults(t, fmt.Sprintf("grid %d served", g), cfgs, runMemo(t, "served", tr, cfgs, memo, MemoServed), want[g])
	}
}

// TestSweepMemoBound shows the memo's bound: on a grid of many predictor
// classes over a small icache, the memo keeps classes only while they fit
// in its trace's Footprint, refuses the class that would cross it, and
// still answers exactly. A sweep of the grid again is not served.
func TestSweepMemoBound(t *testing.T) {
	tr, err := emu.Record(workloadProgram(t, "li", 0.01, isa.BlockStructured), emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for hist := 1; hist <= 16; hist++ {
		for _, pht := range []int{256, 4096} {
			cfgs = append(cfgs, Config{
				ICache:    cache.Config{SizeBytes: 512, Ways: 4},
				Predictor: bpred.Config{HistoryBits: hist, PHTEntries: pht},
			})
		}
	}
	want, err := Sweep(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewOutcomeMemo(tr)
	equalResults(t, "bounded", cfgs, runMemo(t, "bounded", tr, cfgs, memo, MemoRecorded), want)
	kept, limit := len(memo.classes), tr.Footprint()
	t.Logf("memo keeps %d of %d classes in %d B of %d B", kept, len(cfgs), memo.Bytes(), limit)
	if kept == 0 || kept == len(cfgs) {
		t.Fatalf("memo keeps %d of %d classes: the grid should cross the bound", kept, len(cfgs))
	}
	if memo.Bytes() > limit {
		t.Fatalf("memo holds %d B, over its trace's Footprint of %d B", memo.Bytes(), limit)
	}
	got, route, err := Run(context.Background(), tr, cfgs, nil, memo)
	if err != nil {
		t.Fatal(err)
	}
	if route.Memo == MemoServed {
		t.Fatal("a sweep of refused classes was served from the memo")
	}
	equalResults(t, "refused", cfgs, got, want)
	if memo.Bytes() > limit {
		t.Fatalf("memo holds %d B, over its trace's Footprint of %d B", memo.Bytes(), limit)
	}
}

// TestSweepMemoFitsServeWarm keeps serve-warm's history grid — four
// branch-history lengths × the paper's icache sizes — on go for the
// block-structured ISA at scale 0.25, the trace whose records run largest
// against its Footprint, inside the memo's bound: all four classes are
// kept, and the next sweep is served.
func TestSweepMemoFitsServeWarm(t *testing.T) {
	tr, err := emu.Record(workloadProgram(t, "go", 0.25, isa.BlockStructured), emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, hist := range []int{2, 4, 8, 12} {
		for _, sz := range []int{0, 8 << 10, 16 << 10, 32 << 10} {
			cfgs = append(cfgs, Config{
				ICache:    cache.Config{SizeBytes: sz, Ways: 4},
				Predictor: bpred.Config{HistoryBits: hist},
			})
		}
	}
	memo := NewOutcomeMemo(tr)
	want := runMemo(t, "history", tr, cfgs, memo, MemoRecorded)
	t.Logf("go/bsa: %d events, memo %d B of a %d B Footprint (%.2f×)",
		tr.NumEvents(), memo.Bytes(), tr.Footprint(), float64(memo.Bytes())/float64(tr.Footprint()))
	if len(memo.classes) != 4 || len(memo.loads) != 1 {
		t.Fatalf("memo keeps %d classes and %d load records, want 4 and 1", len(memo.classes), len(memo.loads))
	}
	equalResults(t, "served", cfgs, runMemo(t, "served", tr, cfgs, memo, MemoServed), want)
}
