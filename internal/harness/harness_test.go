package harness

import (
	"strings"
	"testing"

	"bsisa/internal/uarch"
)

// newTestHarness builds a tiny-scale harness shared by the tests in this
// file (compilation of all eight profiles is the bulk of the cost).
var testH *Harness

func getHarness(t *testing.T) *Harness {
	t.Helper()
	if testH == nil {
		h, err := New(Options{Scale: 0.06})
		if err != nil {
			t.Fatalf("harness: %v", err)
		}
		testH = h
	}
	return testH
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1()
	r := tbl.Render()
	for _, want := range []string{"Integer", "FP/INT Div", "8", "Memory loads"} {
		if !strings.Contains(r, want) {
			t.Errorf("table 1 missing %q:\n%s", want, r)
		}
	}
	if len(tbl.Rows) != 8 {
		t.Errorf("table 1 has %d rows, want 8", len(tbl.Rows))
	}
}

func TestTable2ListsAllBenchmarks(t *testing.T) {
	h := getHarness(t)
	tbl, err := h.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("table 2 has %d rows", len(tbl.Rows))
	}
	r := tbl.Render()
	for _, name := range []string{"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"} {
		if !strings.Contains(r, name) {
			t.Errorf("table 2 missing %s", name)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	h := getHarness(t)
	tbl, err := h.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// Shape check: BSA wins on most benchmarks (the paper: 7 of 8).
	wins := 0
	for _, row := range tbl.Rows[:8] {
		if strings.HasPrefix(row[3], "+") {
			wins++
		}
	}
	if wins < 5 {
		t.Errorf("BSA wins only %d/8 benchmarks at test scale:\n%s", wins, tbl.Render())
	}
	t.Logf("\n%s", tbl.Render())
}

func TestFigure4WidensGap(t *testing.T) {
	h := getHarness(t)
	f3, err := h.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	f4, err := h.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	mean := func(tbl interface{ Render() string }, rows [][]string) string {
		return rows[len(rows)-1][3]
	}
	m3 := mean(f3, f3.Rows)
	m4 := mean(f4, f4.Rows)
	p3 := parsePct(t, m3)
	p4 := parsePct(t, m4)
	if p4 <= p3 {
		t.Errorf("perfect prediction should widen the BSA gap: fig3 %s vs fig4 %s\n%s\n%s",
			m3, m4, f3.Render(), f4.Render())
	}
	t.Logf("mean reduction: real %s, perfect %s", m3, m4)
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("bad pct %q", s)
	}
	return v
}

func TestFigure5BlockSizes(t *testing.T) {
	h := getHarness(t)
	tbl, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// Mean BSA block size must exceed conventional. At this tiny test scale
	// the one-time init loop (identical straight-line blocks in both ISAs)
	// is a large share of retired blocks and compresses the ratio; at the
	// bsbench reference scale the growth is larger (see EXPERIMENTS.md).
	meanRow := tbl.Rows[len(tbl.Rows)-1]
	var conv, bsa float64
	fmtSscan(meanRow[1], &conv)
	fmtSscan(meanRow[2], &bsa)
	if bsa < conv*1.08 {
		t.Errorf("mean retired block size: conv %.2f, bsa %.2f (want >= 1.08x at test scale)\n%s",
			conv, bsa, tbl.Render())
	}
	// Per-benchmark: BSA must retire bigger blocks on most benchmarks.
	bigger := 0
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		var c, b float64
		fmtSscan(row[1], &c)
		fmtSscan(row[2], &b)
		if b > c {
			bigger++
		}
	}
	if bigger < 6 {
		t.Errorf("BSA retired bigger blocks on only %d/8 benchmarks\n%s", bigger, tbl.Render())
	}
	t.Logf("\n%s", tbl.Render())
}

func TestFigures6And7Shape(t *testing.T) {
	h := getHarness(t)
	f6, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	f7, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	// Mean slowdowns decrease with icache size in both figures, and the
	// BSA slowdowns exceed conventional at every size.
	m6 := meansOf(t, f6.Rows)
	m7 := meansOf(t, f7.Rows)
	for j := 1; j < len(m6); j++ {
		if m6[j] > m6[j-1]+1e-9 {
			t.Errorf("figure 6 mean slowdown not monotone: %v", m6)
		}
		if m7[j] > m7[j-1]+1e-9 {
			t.Errorf("figure 7 mean slowdown not monotone: %v", m7)
		}
	}
	if m7[0] <= m6[0] {
		t.Errorf("BSA should be more icache-sensitive: fig7 %v vs fig6 %v", m7, m6)
	}
	t.Logf("\n%s\n%s", f6.Render(), f7.Render())
}

func meansOf(t *testing.T, rows [][]string) []float64 {
	t.Helper()
	meanRow := rows[len(rows)-1]
	out := make([]float64, len(meanRow)-1)
	for i := range out {
		fmtSscan(meanRow[i+1], &out[i])
	}
	return out
}

func TestMispredictBreakdown(t *testing.T) {
	h := getHarness(t)
	tbl, err := h.Mispredicts()
	if err != nil {
		t.Fatal(err)
	}
	// BSA runs must include fault mispredictions somewhere.
	foundFault := false
	for _, row := range tbl.Rows {
		if row[3] != "0" {
			foundFault = true
		}
	}
	if !foundFault {
		t.Errorf("no fault mispredictions recorded:\n%s", tbl.Render())
	}
}

// TestHarnessGridsSweep requires every multi-configuration batch the
// harness sends to runMany, and xsweep's grid, to take the sweep engine: a
// grid that drifted out of uarch.CanSweep would fall back to one replay per
// configuration, with the same tables, only slower.
func TestHarnessGridsSweep(t *testing.T) {
	for name, grid := range map[string][]uarch.Config{
		"Figure 6/7 icache":     icacheGrid(),
		"predictor sensitivity": predSensGrid(),
		"A4 history":            historyGrid(),
		"xsweep":                xsweepGrid(),
	} {
		if r := uarch.RouteFor(grid); r.Engine != uarch.EngineSweep {
			t.Errorf("the %s grid takes %s: %s", name, r.Engine, r.Reason)
		}
	}
}
