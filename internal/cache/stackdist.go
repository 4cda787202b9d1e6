package cache

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// StackDist is a single-pass LRU stack-distance profiler: it walks an
// address stream once and produces hit/miss counts that are exactly equal to
// running one Cache per power-of-two size in [minSizeBytes, maxSizeBytes]
// (fixed associativity and line size) over the same stream.
//
// The classic Mattson observation makes this exact for LRU: an access hits a
// W-way set-associative cache iff fewer than W distinct conflicting lines
// were touched since the last access to the same line. With bit-selection
// indexing, the sets of a small power-of-two cache partition into the sets
// of every larger one (the set index is a prefix of low line-address bits),
// so one per-set recency stack — kept at the smallest set count — serves
// every size at once: a prior line conflicts at set-bit count s iff its low
// s line-address bits match, which is a threshold on the trailing-zero count
// of the XOR. Each access therefore walks one stack, buckets the preceding
// lines by matching-bit count, and a suffix sum yields the stack distance at
// every level simultaneously.
//
// Stacks are pruned: once a line has Ways or more lines ahead of it that
// match it at the largest set count (and hence at every smaller one), its
// stack distance is ≥ Ways at every level, so it can never hit again and is
// indistinguishable from an absent line. Eviction of the deepest such entry
// is sound for the lines behind it too: any deeper line that the evicted one
// conflicts with at some level also conflicts with those same ≥ Ways
// shallower lines at that level (equality of low bits is transitive), so its
// hit/miss outcome is already decided without the evicted entry. This bounds
// each stack's depth at roughly (maxSets/minSets)·Ways independent of the
// stream length.
type StackDist struct {
	ways      int
	lineBytes int
	lineShift uint32
	minBits   uint32 // log2(set count) at the smallest size
	maxBits   uint32 // log2(set count) at the largest size
	minMask   uint32 // minSets-1: line address -> stack index
	levels    int    // maxBits-minBits+1 sweep points

	stacks   [][]uint32 // per-min-set recency stacks of line addresses, MRU first
	cnt      []int      // scratch: preceding lines bucketed by matching-bit count
	stats    []Stats    // per-level traffic, index 0 = smallest size
	mruHits  int64      // stack-top hits short-circuited before the stack walk
	accesses int64
}

// NewStackDist builds a profiler covering every power-of-two size from
// minSizeBytes to maxSizeBytes inclusive at cfg's associativity and line
// size (cfg.SizeBytes is ignored). Both bounds must be valid cache
// geometries for those parameters.
func NewStackDist(cfg Config, minSizeBytes, maxSizeBytes int) (*StackDist, error) {
	cfg = cfg.withDefaults()
	if err := (Config{SizeBytes: minSizeBytes, Ways: cfg.Ways, LineBytes: cfg.LineBytes}).validate(); err != nil {
		return nil, fmt.Errorf("stackdist: min size: %w", err)
	}
	if err := (Config{SizeBytes: maxSizeBytes, Ways: cfg.Ways, LineBytes: cfg.LineBytes}).validate(); err != nil {
		return nil, fmt.Errorf("stackdist: max size: %w", err)
	}
	if minSizeBytes == 0 || maxSizeBytes < minSizeBytes {
		return nil, fmt.Errorf("stackdist: invalid size range [%d, %d]", minSizeBytes, maxSizeBytes)
	}
	minSets := minSizeBytes / (cfg.Ways * cfg.LineBytes)
	maxSets := maxSizeBytes / (cfg.Ways * cfg.LineBytes)
	sd := &StackDist{
		ways:      cfg.Ways,
		lineBytes: cfg.LineBytes,
		lineShift: uint32(bits.TrailingZeros32(uint32(cfg.LineBytes))),
		minBits:   uint32(bits.TrailingZeros32(uint32(minSets))),
		maxBits:   uint32(bits.TrailingZeros32(uint32(maxSets))),
		minMask:   uint32(minSets - 1),
	}
	sd.levels = int(sd.maxBits-sd.minBits) + 1
	sd.stacks = make([][]uint32, minSets)
	sd.cnt = make([]int, sd.levels)
	sd.stats = make([]Stats, sd.levels)
	return sd, nil
}

// StackDistBytes bounds the bytes of the recency stacks a StackDist over
// [minSizeBytes, maxSizeBytes] at cfg's associativity and line size holds,
// however long its stream: pruning keeps at most Ways lines of each set of
// the largest size, so the stacks hold at most that size's line count, in
// slices that append at most doubles.
func StackDistBytes(cfg Config, minSizeBytes, maxSizeBytes int) int {
	cfg = cfg.withDefaults()
	minSets := minSizeBytes / (cfg.Ways * cfg.LineBytes)
	maxLines := maxSizeBytes / cfg.LineBytes
	return minSets*int(unsafe.Sizeof([]uint32(nil))) + 2*maxLines*int(unsafe.Sizeof(uint32(0)))
}

// Levels returns the number of sweep points (one per power-of-two size).
func (sd *StackDist) Levels() int { return sd.levels }

// SizeAt returns the cache size in bytes modelled at a level; level 0 is the
// smallest size.
func (sd *StackDist) SizeAt(level int) int {
	return (1 << (sd.minBits + uint32(level))) * sd.ways * sd.lineBytes
}

// LevelOf maps a cache size to its level, or an error if the size is outside
// the profiled range.
func (sd *StackDist) LevelOf(sizeBytes int) (int, error) {
	for lvl := 0; lvl < sd.levels; lvl++ {
		if sd.SizeAt(lvl) == sizeBytes {
			return lvl, nil
		}
	}
	return 0, fmt.Errorf("stackdist: size %dB not in profiled range [%d, %d]",
		sizeBytes, sd.SizeAt(0), sd.SizeAt(sd.levels-1))
}

// Access touches the line containing addr at every level at once. If misses
// is non-nil it must have length Levels(); misses[l] is incremented when the
// access misses the level-l cache.
func (sd *StackDist) Access(addr uint32, misses []int) {
	sd.accessLine(addr>>sd.lineShift, misses)
}

// AccessRange touches every line overlapping [addr, addr+size), mirroring
// Cache.AccessRange. If misses is non-nil it must have length Levels();
// misses[l] accumulates the number of missing lines at level l.
func (sd *StackDist) AccessRange(addr, size uint32, misses []int) {
	if size == 0 {
		size = 1
	}
	first := addr >> sd.lineShift
	last := (addr + size - 1) >> sd.lineShift
	for l := first; l <= last; l++ {
		sd.accessLine(l, misses)
	}
}

func (sd *StackDist) accessLine(la uint32, misses []int) {
	sd.accesses++
	st := sd.stacks[la&sd.minMask]
	if len(st) > 0 && st[0] == la {
		// The line is the set's MRU entry: stack distance 0, a hit at every
		// level, no recency reordering. This is the bulk of instruction
		// fetch traffic (consecutive fetches share a line), so the per-level
		// accounting is deferred to one counter StatsAt folds back in.
		sd.mruHits++
		return
	}
	cnt := sd.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	found := -1
	sameTop, lastTop := 0, -1
	for i, prev := range st {
		if prev == la {
			found = i
			break
		}
		// Number of matching low line-address bits; ≥ minBits because prev
		// and la share a stack. prev != la so the XOR is nonzero.
		m := uint32(bits.TrailingZeros32(prev ^ la))
		if m >= sd.maxBits {
			m = sd.maxBits
			sameTop++
			lastTop = i
		}
		cnt[m-sd.minBits]++
	}
	// Suffix sum from the top: the stack distance at set-bit count s counts
	// preceding lines matching at s or more bits.
	dist := 0
	for lvl := sd.levels - 1; lvl >= 0; lvl-- {
		dist += cnt[lvl]
		sd.stats[lvl].Accesses++
		if found < 0 || dist >= sd.ways {
			sd.stats[lvl].Misses++
			if misses != nil {
				misses[lvl]++
			}
		}
	}
	if found >= 0 {
		// Move to front.
		copy(st[1:found+1], st[:found])
		st[0] = la
		return
	}
	if sameTop >= sd.ways {
		// The deepest full-match entry can never hit again; reuse its slot.
		copy(st[1:lastTop+1], st[:lastTop])
		st[0] = la
		return
	}
	st = append(st, 0)
	copy(st[1:], st[:len(st)-1])
	st[0] = la
	sd.stacks[la&sd.minMask] = st
}

// StatsAt returns the traffic counters for a level — exactly what a Cache of
// SizeAt(level) bytes would report over the same stream.
func (sd *StackDist) StatsAt(level int) Stats {
	s := sd.stats[level]
	s.Accesses += sd.mruHits
	return s
}

// Accesses returns the total line accesses profiled (identical at every
// level).
func (sd *StackDist) Accesses() int64 { return sd.accesses }

// Reset clears stacks and statistics.
func (sd *StackDist) Reset() {
	for i := range sd.stacks {
		sd.stacks[i] = sd.stacks[i][:0]
	}
	for i := range sd.stats {
		sd.stats[i] = Stats{}
	}
	sd.mruHits = 0
	sd.accesses = 0
}
