package main

import (
	"reflect"
	"testing"
	"time"
)

func TestRankIsNearestRank(t *testing.T) {
	for _, c := range []struct{ n, permille, want int }{
		{100, 900, 90},
		{100, 500, 50},
		{101, 900, 91}, // 90.9 rounds up
		{10, 500, 5},
		{11, 500, 6},
		{1, 500, 1},
		{3, 1, 1}, // never below the first sample
	} {
		if got := rank(c.n, c.permille); got != c.want {
			t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.permille, got, c.want)
		}
	}
}

func TestPercentileSelection(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100-i) * time.Millisecond // reversed: sorting matters
	}
	sorted := sortedDurations(ds)
	if got := percentile(sorted, 500); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := percentile(sorted, 900); got != 90*time.Millisecond {
		t.Errorf("p90 = %v, want 90ms", got)
	}
	if got := percentile(nil, 900); got != 0 {
		t.Errorf("p90 of nothing = %v, want 0", got)
	}
	if ds[0] != 100*time.Millisecond {
		t.Error("sortedDurations sorted its input in place")
	}
}

// TestTenSamplesBeyond pins the rule that a reported percentile has at least
// ten samples above it: p90 needs 100 samples.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		permille int
		want     bool
	}{
		{0, 900, false},
		{99, 900, false}, // p90 is rank 90: nine beyond
		{100, 900, true},
		{19, 500, false},
		{20, 500, true}, // p50 is rank 10: ten beyond
	} {
		if got := supported(c.n, c.permille); got != c.want {
			t.Errorf("supported(%d, %d) = %v, want %v", c.n, c.permille, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestPassOrderIsASeededPermutation(t *testing.T) {
	a, b := passOrder(7, 2, 32), passOrder(7, 2, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and pass gave different orders")
	}
	if reflect.DeepEqual(a, passOrder(8, 2, 32)) || reflect.DeepEqual(a, passOrder(7, 3, 32)) {
		t.Error("order does not depend on seed and pass")
	}
	seen := make([]bool, 32)
	for _, i := range a {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d missing from the order", i)
		}
	}
}
