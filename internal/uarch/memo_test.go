package uarch

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
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
	grids := crossGrids()
	maps.Copy(grids, map[string][]Config{
		"icache":                   sweepGrid(false),
		"icachePerfect":            sweepGrid(true),
		"pred":                     predGrid(1024),
		"predPerfectIC":            predGrid(0),
		"history×icache":           historyICacheGrid(false),
		"history×icache perfectBP": historyICacheGrid(true),
	})
	return grids
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
// history×icache, perfect-BP and cross grids, the last on three machines. A
// memo starts empty for each grid, so the first sweep records, and the
// second is served.
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
	grids := [][]Config{sweepGrid(false), historyICacheGrid(false)}
	crosses := crossGrids()
	for _, name := range slices.Sorted(maps.Keys(crosses)) {
		grids = append(grids, crosses[name])
	}
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

// TestOutcomeStreams drives the outcome streams' writer and cursor directly.
// A hand-built sequence of outcomes — every misprediction kind, faults with
// and without wrong-path misses, per-level counts that need each of
// appendLevels' codes, counts of 128 and more, and event deltas of 128 and
// more and of 2¹⁴ and more — is written three ways: cut after each of two
// chunks, as a memo-less sweep writes it; kept whole across them, as a
// recording sweep does; and whole before any read, as a served sweep finds
// it. Each reads back field for field at every event, and the cut chunks'
// bytes put together are the whole streams'. A class without a profiler
// writes and reads its mispredictions alone.
func TestOutcomeStreams(t *testing.T) {
	b := &isa.Block{Succs: []isa.BlockID{4, 5, 6}}
	prog := &isa.Program{Blocks: []*isa.Block{b}}
	type outcome struct {
		ev        int
		kind      uint8       // 0 where the class predicted right
		wrong     isa.BlockID // a fault's wrongly fetched block
		wrongMiss []int       // a fault's wrong-path misses per level; nil for none
		fetch     []int       // the fetch probe's misses per level; nil for none
	}
	profiled := []outcome{
		{ev: 0, kind: mpMisfetch, fetch: []int{3, 3, 2, 0, 0, 0}},
		{ev: 1, kind: mpTrap},
		{ev: 130, kind: mpFault, wrong: 6, wrongMiss: []int{200, 150, 149, 149, 0, 0}, fetch: []int{1, 1, 1, 1, 1, 1}},
		{ev: 131, fetch: []int{300, 7, 7, 6, 0, 0}},
		{ev: 4095, kind: mpTrap, fetch: []int{2, 1, 1, 1, 1, 1}},
		// The second chunk starts at event 4096.
		{ev: 4100, kind: mpFault, wrong: 4},
		{ev: 24100, kind: mpFaultNoBlock, fetch: []int{5, 4, 3, 2, 1, 0}},
		{ev: 24200, fetch: []int{1, 0, 0, 0, 0, 0}},
		{ev: 24201, kind: mpFault, wrong: 5, wrongMiss: []int{9, 9, 2, 0, 0, 0}},
		{ev: 24250, kind: mpFault, wrong: 4, wrongMiss: []int{1, 0, 0, 0, 0, 0}},
	}
	chunks := [][2]int{{0, 4096}, {4096, 24300}}
	run := func(label string, levels int, outs []outcome) {
		write := func(s *outcomeStreams, from, to int) {
			for _, o := range outs {
				if o.ev < from || o.ev >= to {
					continue
				}
				if o.fetch != nil {
					s.appendMiss(o.ev, o.fetch)
				}
				if o.kind != 0 {
					misses := o.wrongMiss
					if misses == nil && levels > 0 {
						misses = make([]int, levels)
					}
					s.appendMp(o.ev, o.kind, b, o.wrong, misses)
				}
			}
		}
		zeros := make([]int, levels)
		read := func(mode string, s *outcomeStreams, from, to int) {
			next := slices.IndexFunc(outs, func(o outcome) bool { return o.ev >= from })
			for ev := from; ev < to; ev++ {
				s.at(ev, prog, 0)
				var want outcome
				if next >= 0 && next < len(outs) && outs[next].ev == ev {
					want = outs[next]
					next++
				}
				at := fmt.Sprintf("%s %s: event %d", label, mode, ev)
				wantFetch := want.fetch
				if wantFetch == nil {
					wantFetch = zeros
				}
				if !slices.Equal(s.fetch[:levels], wantFetch) || s.fetch[levels] != 0 {
					t.Fatalf("%s: fetch misses %v, want %v and a last slot of 0", at, s.fetch, wantFetch)
				}
				if s.mp != (want.kind != 0) || s.mp && s.kind != want.kind {
					t.Fatalf("%s: misprediction %v of kind %d, want kind %d", at, s.mp, s.kind, want.kind)
				}
				if want.kind != mpFault {
					continue
				}
				wantWrong := want.wrongMiss
				if wantWrong == nil {
					wantWrong = zeros
				}
				if s.wrongBlock != want.wrong || !slices.Equal(s.wrongLevels[:levels], wantWrong) || s.wrongLevels[levels] != 0 {
					t.Fatalf("%s: fault fetching B%d with misses %v, want B%d with %v", at, s.wrongBlock, s.wrongLevels, want.wrong, wantWrong)
				}
			}
		}
		cut, kept, whole := newOutcomeStreams(levels), newOutcomeStreams(levels), newOutcomeStreams(levels)
		var mps, misses []byte
		for _, ch := range chunks {
			write(&cut, ch[0], ch[1])
			mps, misses = append(mps, cut.mps...), append(misses, cut.misses...)
			cut.sync()
			read("cut", &cut, ch[0], ch[1])
			cut.cut()
			write(&kept, ch[0], ch[1])
			kept.sync()
			read("kept", &kept, ch[0], ch[1])
		}
		write(&whole, 0, chunks[len(chunks)-1][1])
		whole.sync()
		read("whole", &whole, 0, chunks[len(chunks)-1][1])
		for _, s := range []*outcomeStreams{&kept, &whole} {
			if !bytes.Equal(s.mps, mps) || !bytes.Equal(s.misses, misses) {
				t.Fatalf("%s: whole streams of %d and %d B differ from the cut chunks' %d and %d B",
					label, len(s.mps), len(s.misses), len(mps), len(misses))
			}
		}
	}
	run("profiled", 6, profiled)
	var alone []outcome
	for _, o := range profiled {
		if o.kind != 0 {
			alone = append(alone, outcome{ev: o.ev, kind: o.kind, wrong: o.wrong})
		}
	}
	run("unprofiled", 0, alone)
}
