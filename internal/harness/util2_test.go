package harness

import (
	"bytes"
	"strings"
	"testing"

	"bsisa/internal/core"
)

func TestPaperICacheLabels(t *testing.T) {
	for _, sz := range ICacheSizes {
		l := PaperICacheLabel(sz)
		if !strings.Contains(l, "paper") {
			t.Errorf("label %q missing paper mapping", l)
		}
	}
	if got := PaperICacheLabel(12345); got != "12345B" {
		t.Errorf("fallback label = %q", got)
	}
	if LargeICache != ICacheSizes[len(ICacheSizes)-1] {
		t.Error("LargeICache should be the top of the sweep")
	}
}

// TestRunMemoizes checks that Run memoizes a prepared executable's result
// by program and config, and nothing for a program compiled on the fly.
// Figure 3 and then Figure 7 leave five results per benchmark: Figure 3's
// two executables at 32 KB, and Figure 7's block-structured sweep of four
// icaches, whose 32 KB point is Figure 3's run.
func TestRunMemoizes(t *testing.T) {
	h := getHarness(t)
	b := h.Benches[0]
	cfg := baseConfig(LargeICache, false)
	r1, err := h.Run(b.Conv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(b.Conv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("one program and config should return the cached result pointer")
	}
	h.ClearResults()
	fresh, _, err := b.CompileBSA(core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(fresh, cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(h.results); n != 0 {
		t.Errorf("a program compiled on the fly left %d memoized results", n)
	}
	if _, err := h.Figure3(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Figure7(); err != nil {
		t.Fatal(err)
	}
	if n, want := len(h.results), 5*len(h.Benches); n != want {
		t.Errorf("Figure 3 and Figure 7 memoized %d results, want %d", n, want)
	}
}

func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Progress: &buf}
	o.progress("step %d", 7)
	if !strings.Contains(buf.String(), "step 7") {
		t.Errorf("progress output %q", buf.String())
	}
	// Nil progress is a no-op, not a panic.
	Options{}.progress("ignored")
}

func TestHarnessDeterministicAcrossInstances(t *testing.T) {
	// Two fresh harnesses at the same scale produce identical cycle counts
	// for the same run (the whole pipeline is deterministic).
	a, err := New(Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run(a.Benches[2].BSA, baseConfig(LargeICache, false))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(b.Benches[2].BSA, baseConfig(LargeICache, false))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles != rb.Cycles || ra.Ops != rb.Ops {
		t.Errorf("nondeterministic pipeline: %d/%d vs %d/%d", ra.Cycles, ra.Ops, rb.Cycles, rb.Ops)
	}
}

func TestEnlargeStatsExposed(t *testing.T) {
	h := getHarness(t)
	for _, b := range h.Benches {
		if b.Enlarge == nil || b.Enlarge.CodeGrowth() <= 1 {
			t.Errorf("%s: enlargement stats missing or degenerate", b.Profile.Name)
		}
		if b.Conv.Kind == b.BSA.Kind {
			t.Errorf("%s: both executables share a kind", b.Profile.Name)
		}
	}
}
