package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// figure resting on fewer outliers than this is noise, not a percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the permille-th percentile
// of n samples: the smallest k with k/n >= permille/1000. Integer arithmetic
// keeps p90 of 100 samples at rank 90 exactly.
func rank(n, permille int) int {
	k := (permille*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// supported reports whether n samples hold at least minBeyond samples above
// the permille-th percentile.
func supported(n, permille int) bool {
	return n > 0 && n-rank(n, permille) >= minBeyond
}

// percentile returns the nearest-rank permille-th percentile of sorted.
func percentile(sorted []time.Duration, permille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), permille)-1]
}

// sortedDurations returns a sorted copy of ds.
func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
