// Package cache models set-associative caches with LRU replacement for the
// processor's instruction and data caches. The paper's configuration: the L1
// icache size is the experimental variable (its Figures 6 and 7 sweep it),
// the L1 dcache is 16 KB, and the L2 is perfect with a six-cycle access
// time.
//
// Two evaluation modes are provided: Cache simulates one concrete
// configuration, and StackDist (stackdist.go) profiles an address stream
// once to produce exact LRU hit/miss counts for a whole range of cache
// sizes simultaneously — the engine behind the single-pass icache sweeps.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	SizeBytes int // total capacity; 0 means a perfect cache
	Ways      int // associativity (default 4, must be a power of two)
	LineBytes int // line size (default 64, must be a power of two)
}

func (c Config) withDefaults() Config {
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	return c
}

// Normalize returns the configuration with defaults applied, so two configs
// describing the same geometry compare equal.
func (c Config) Normalize() Config { return c.withDefaults() }

// Validate reports whether the configuration (after defaulting) describes a
// legal geometry: the same check New applies, exposed so callers can reject
// a bad config before building anything.
func (c Config) Validate() error { return c.withDefaults().validate() }

// validate rejects geometry that would silently produce a nonsense set
// count: non-positive or non-power-of-two associativity or line size, and a
// capacity that is not an exact power-of-two number of sets.
func (c Config) validate() error {
	if c.Ways <= 0 || c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache: associativity %d is not a positive power of two", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %dB is not a positive power of two", c.LineBytes)
	}
	if c.SizeBytes == 0 {
		return nil // perfect cache: no geometry
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 || sets*c.Ways*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: %dB/%d-way/%dB lines yields non-power-of-two set count %d",
			c.SizeBytes, c.Ways, c.LineBytes, sets)
	}
	return nil
}

// Stats counts cache traffic in lines.
type Stats struct {
	Accesses int64 // line accesses
	Misses   int64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative LRU cache. A zero SizeBytes configures a
// perfect cache (every access hits).
type Cache struct {
	cfg       Config
	perfect   bool
	sets      int
	lineShift uint32 // log2(LineBytes): addr -> line address
	setBits   uint32 // log2(sets): line address -> tag
	lines     []line // sets*ways
	clock     uint64
	stats     Stats
	// Same-line memo: the most recently accessed line, or noLine. A repeat
	// access to it is by construction a hit that leaves the set's relative
	// LRU order unchanged (the line is already most-recent and nothing else
	// has been touched since), so the probe is skipped entirely. Sequential
	// fetch makes consecutive blocks share a line constantly, so this elides
	// the set scan for the bulk of instruction fetch traffic. One sentineled
	// word rather than a value+valid pair keeps AccessLines inlinable.
	lastLine uint32
}

// noLine is the memo's empty value. Line addresses are byte addresses
// shifted right by at least one line bit, so the all-ones word is never a
// real line.
const noLine = ^uint32(0)

type line struct {
	valid   bool
	tag     uint32
	lastUse uint64
}

// New builds a cache. Ways and LineBytes must be positive powers of two and
// SizeBytes an exact power-of-two multiple of Ways*LineBytes (or zero for a
// perfect cache).
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, lineShift: uint32(bits.TrailingZeros32(uint32(cfg.LineBytes))), lastLine: noLine}
	if cfg.SizeBytes == 0 {
		c.perfect = true
		return c, nil
	}
	c.sets = cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	c.setBits = uint32(bits.TrailingZeros32(uint32(c.sets)))
	c.lines = make([]line, c.sets*cfg.Ways)
	return c, nil
}

// MustNew is New, panicking on configuration errors (for tables of fixed
// experiment configurations).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Access touches the line containing addr, returning whether it hit, and
// fills it on miss.
func (c *Cache) Access(addr uint32) bool {
	c.stats.Accesses++
	if c.perfect {
		return true
	}
	return c.accessLine(addr >> c.lineShift)
}

// accessLine probes and (on miss) fills the set for one line address. The
// caller has already counted the access.
func (c *Cache) accessLine(lineAddr uint32) bool {
	if lineAddr == c.lastLine {
		return true
	}
	c.lastLine = lineAddr
	c.clock++
	set := int(lineAddr) & (c.sets - 1)
	tag := lineAddr >> c.setBits
	base := set * c.cfg.Ways
	victim := base
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.lastUse = c.clock
			return true
		}
		if !l.valid {
			victim = base + i
		} else if c.lines[victim].valid && l.lastUse < c.lines[victim].lastUse {
			victim = base + i
		}
	}
	c.stats.Misses++
	l := &c.lines[victim]
	l.valid = true
	l.tag = tag
	l.lastUse = c.clock
	return false
}

// AccessRange touches every line overlapping [addr, addr+size), returning
// the number of missing lines. The fetch path uses this for multi-line
// blocks (consecutive lines; the block-structured ISA's point is precisely
// that it never needs non-consecutive lines in one cycle). Line, set and
// tag are derived incrementally from the running line address rather than
// re-split per byte address.
func (c *Cache) AccessRange(addr, size uint32) int {
	if size == 0 {
		size = 1
	}
	return c.AccessLines(addr>>c.lineShift, (addr+size-1)>>c.lineShift)
}

// AccessLines is AccessRange over an already-split line range [first, last]:
// callers that fetch the same blocks repeatedly (the sweep engines'
// predecoded tables) precompute the split once. The single-line case on the
// memoized line — a guaranteed hit that cannot move any LRU state, see
// accessLine — is handled here so it inlines at the call site.
func (c *Cache) AccessLines(first, last uint32) int {
	if first == c.lastLine && first == last {
		c.stats.Accesses++
		return 0
	}
	return c.accessLines(first, last)
}

func (c *Cache) accessLines(first, last uint32) int {
	misses := 0
	for l := first; l <= last; l++ {
		c.stats.Accesses++
		if c.perfect {
			continue
		}
		if !c.accessLine(l) {
			misses++
		}
	}
	return misses
}

// Stats returns traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Perfect reports whether the cache always hits.
func (c *Cache) Perfect() bool { return c.perfect }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.clock = 0
	c.stats = Stats{}
	c.lastLine = noLine
}
