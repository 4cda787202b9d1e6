package cache

import (
	"math/rand"
	"testing"
)

// referenceCaches builds one concrete Cache per profiled level.
func referenceCaches(t *testing.T, cfg Config, minSize, maxSize int) []*Cache {
	t.Helper()
	var caches []*Cache
	for sz := minSize; sz <= maxSize; sz *= 2 {
		c, err := New(Config{SizeBytes: sz, Ways: cfg.Ways, LineBytes: cfg.LineBytes})
		if err != nil {
			t.Fatal(err)
		}
		caches = append(caches, c)
	}
	return caches
}

// TestStackDistMatchesCaches drives a profiler and one real Cache per size
// with identical random streams (a mix of point accesses and ranges, with
// enough locality to exercise hits, LRU depth and the pruning path) and
// checks per-access miss counts and final stats are identical at every
// level.
func TestStackDistMatchesCaches(t *testing.T) {
	geoms := []struct {
		cfg              Config
		minSize, maxSize int
	}{
		{Config{Ways: 4, LineBytes: 64}, 8 << 10, 32 << 10}, // the Figure 6/7 sweep
		{Config{Ways: 1, LineBytes: 32}, 1 << 10, 16 << 10}, // direct-mapped, deep range
		{Config{Ways: 8, LineBytes: 16}, 2 << 10, 2 << 10},  // single level
		{Config{Ways: 2, LineBytes: 64}, 128, 8 << 10},      // tiny: 1 set at the bottom
	}
	for gi, g := range geoms {
		sd, err := NewStackDist(g.cfg, g.minSize, g.maxSize)
		if err != nil {
			t.Fatal(err)
		}
		caches := referenceCaches(t, g.cfg, g.minSize, g.maxSize)
		if sd.Levels() != len(caches) {
			t.Fatalf("geom %d: Levels() = %d, want %d", gi, sd.Levels(), len(caches))
		}
		for lvl, c := range caches {
			if sd.SizeAt(lvl) != c.cfg.SizeBytes {
				t.Fatalf("geom %d: SizeAt(%d) = %d, want %d", gi, lvl, sd.SizeAt(lvl), c.cfg.SizeBytes)
			}
		}
		r := rand.New(rand.NewSource(int64(100 + gi)))
		misses := make([]int, sd.Levels())
		// Hot region sized to land between the smallest and largest cache so
		// the sweep points genuinely disagree.
		hot := uint32(2 * g.maxSize)
		for i := 0; i < 30000; i++ {
			var addr uint32
			if r.Intn(4) > 0 {
				addr = uint32(r.Intn(int(hot)))
			} else {
				addr = uint32(r.Intn(1 << 24))
			}
			for j := range misses {
				misses[j] = 0
			}
			if r.Intn(3) == 0 {
				size := uint32(r.Intn(4 * g.cfg.LineBytes))
				sd.AccessRange(addr, size, misses)
				for lvl, c := range caches {
					if want := c.AccessRange(addr, size); misses[lvl] != want {
						t.Fatalf("geom %d access %d: range(%#x,%d) level %d misses = %d, cache = %d",
							gi, i, addr, size, lvl, misses[lvl], want)
					}
				}
			} else {
				sd.Access(addr, misses)
				for lvl, c := range caches {
					want := 0
					if !c.Access(addr) {
						want = 1
					}
					if misses[lvl] != want {
						t.Fatalf("geom %d access %d: access(%#x) level %d miss = %d, cache = %d",
							gi, i, addr, lvl, misses[lvl], want)
					}
				}
			}
		}
		for lvl, c := range caches {
			if sd.StatsAt(lvl) != c.Stats() {
				t.Errorf("geom %d: level %d stats = %+v, cache = %+v", gi, lvl, sd.StatsAt(lvl), c.Stats())
			}
			if sd.Accesses() != c.Stats().Accesses {
				t.Errorf("geom %d: Accesses() = %d, cache = %d", gi, sd.Accesses(), c.Stats().Accesses)
			}
		}
	}
}

// TestStackDistSequentialSweep checks the textbook case directly: a repeated
// sequential sweep over a footprint between two sweep sizes hits in the
// larger cache and thrashes the smaller one.
func TestStackDistSequentialSweep(t *testing.T) {
	sd, err := NewStackDist(Config{Ways: 4, LineBytes: 64}, 8<<10, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	// 16 KB footprint: fits in 16 KB and 32 KB, thrashes 8 KB under LRU.
	const footprint = 16 << 10
	for pass := 0; pass < 4; pass++ {
		for a := uint32(0); a < footprint; a += 64 {
			sd.Access(a, nil)
		}
	}
	small := sd.StatsAt(0) // 8 KB
	mid := sd.StatsAt(1)   // 16 KB
	large := sd.StatsAt(2) // 32 KB
	lines := int64(footprint / 64)
	if small.Misses != small.Accesses {
		t.Errorf("8KB should thrash: %+v", small)
	}
	if mid.Misses != lines || large.Misses != lines {
		t.Errorf("16/32KB should only cold-miss: %+v, %+v", mid, large)
	}
}

func TestStackDistReset(t *testing.T) {
	sd, err := NewStackDist(Config{Ways: 2, LineBytes: 64}, 1<<10, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	sd.Access(0, nil)
	sd.Access(64, nil)
	sd.Reset()
	if sd.Accesses() != 0 {
		t.Error("accesses not reset")
	}
	misses := make([]int, sd.Levels())
	sd.Access(0, misses)
	for lvl, m := range misses {
		if m != 1 {
			t.Errorf("level %d should cold-miss after reset, got %d", lvl, m)
		}
	}
}

func TestStackDistRejectsBadRanges(t *testing.T) {
	cfg := Config{Ways: 4, LineBytes: 64}
	if _, err := NewStackDist(cfg, 0, 8<<10); err == nil {
		t.Error("zero min size should be rejected")
	}
	if _, err := NewStackDist(cfg, 16<<10, 8<<10); err == nil {
		t.Error("inverted range should be rejected")
	}
	if _, err := NewStackDist(cfg, 100, 8<<10); err == nil {
		t.Error("non-geometry min size should be rejected")
	}
	if _, err := NewStackDist(Config{Ways: 3}, 8<<10, 8<<10); err == nil {
		t.Error("bad associativity should be rejected")
	}
}

func BenchmarkStackDistAccess(b *testing.B) {
	sd, err := NewStackDist(Config{Ways: 4, LineBytes: 64}, 8<<10, 32<<10)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 1<<16)
	for i := range addrs {
		addrs[i] = uint32(r.Intn(64 << 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Access(addrs[i&(len(addrs)-1)], nil)
	}
}
