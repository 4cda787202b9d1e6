package uarch

import (
	"bsisa/internal/isa"
)

// Trace cache (Rotenberg, Bennett & Smith 1996) — the paper's §3 rival for
// raising fetch rate on a *conventional* ISA, and its §6 suggestion for
// combining with block-structured ISAs. The fetch unit has two parts: the
// core fetch unit supplies one basic block per cycle from the icache; the
// trace cache records the dynamic sequences of basic blocks the machine
// retires (the fill unit follows commit) and, when the sequence about to be
// fetched matches a stored trace, supplies the whole trace in one cycle.
//
// Where the block enlargement optimization builds its multi-block units at
// compile time (using the whole icache to hold them), the trace cache builds
// them at run time in a small dedicated cache — the exact contrast the paper
// draws. The ablation harness runs conventional code with and without a
// trace cache against the block-structured executables.
//
// Modeling: the simulator processes the committed block stream in order. A
// trace hit is evaluated incrementally — when a fetched block starts a
// stored trace, a fetch window opens, and each following committed block
// that (a) matches the stored sequence and (b) was correctly predicted
// shares the window's fetch cycle. Any divergence or misprediction closes
// the window (a partial hit, as in the real mechanism). Trace-cache fetches
// bypass the icache; fills happen at retirement from committed blocks only,
// so wrong-path blocks never enter the trace cache.

// TraceCacheConfig sizes the trace cache. The zero value disables it.
type TraceCacheConfig struct {
	// Sets and Ways size the cache (defaults 64 sets, 4 ways when enabled).
	Sets int
	Ways int
}

// A trace holds at most traceMaxBlocks blocks and traceMaxOps operations
// (one default issue width, mirroring the atomic block cap), with at most
// traceMaxBranches conditional branches inside it.
const (
	traceMaxBlocks   = 4
	traceMaxOps      = 16
	traceMaxBranches = 3
)

// Enabled reports whether a trace cache is configured.
func (c TraceCacheConfig) Enabled() bool { return c.Sets != 0 || c.Ways != 0 }

func (c TraceCacheConfig) withDefaults() TraceCacheConfig {
	if c.Sets == 0 {
		c.Sets = 64
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	return c
}

// TraceCacheStats reports trace cache behavior.
type TraceCacheStats struct {
	Lookups     int64 // fetches that probed the trace cache
	Hits        int64 // windows opened
	Covered     int64 // blocks whose fetch was covered by a window (beyond the first)
	Fills       int64 // traces written
	BrokenEarly int64 // windows closed before the stored trace ended
}

type traceEntry struct {
	valid   bool
	tag     uint32
	lastUse uint64
	blocks  []isa.BlockID
}

type traceCache struct {
	cfg     TraceCacheConfig
	entries []traceEntry
	clock   uint64
	stats   TraceCacheStats

	// fill unit state: the trace being accumulated from retirement.
	fill         []isa.BlockID
	fillOps      int
	fillBranches int

	// active fetch window.
	window    []isa.BlockID // remaining blocks the open trace predicts
	windowCyc int64
}

func newTraceCache(cfg TraceCacheConfig) *traceCache {
	cfg = cfg.withDefaults()
	return &traceCache{cfg: cfg, entries: make([]traceEntry, cfg.Sets*cfg.Ways)}
}

func (tc *traceCache) index(start isa.BlockID) (int, uint32) {
	set := int(start) & (tc.cfg.Sets - 1)
	return set * tc.cfg.Ways, uint32(start)
}

// lookup finds a stored trace starting at the block, if any.
func (tc *traceCache) lookup(start isa.BlockID) *traceEntry {
	base, tag := tc.index(start)
	tc.clock++
	for i := 0; i < tc.cfg.Ways; i++ {
		e := &tc.entries[base+i]
		if e.valid && e.tag == tag && len(e.blocks) > 1 {
			e.lastUse = tc.clock
			return e
		}
	}
	return nil
}

// store writes a completed trace.
func (tc *traceCache) store(blocks []isa.BlockID) {
	if len(blocks) < 2 {
		return
	}
	base, tag := tc.index(blocks[0])
	// Prefer an existing entry with the same tag, then an invalid way, then
	// the least recently used way.
	victim := -1
	for i := 0; i < tc.cfg.Ways; i++ {
		if e := &tc.entries[base+i]; e.valid && e.tag == tag {
			victim = base + i
			break
		}
	}
	if victim < 0 {
		victim = base
		for i := 1; i < tc.cfg.Ways; i++ {
			v := &tc.entries[victim]
			if !v.valid {
				break
			}
			if e := &tc.entries[base+i]; !e.valid || e.lastUse < v.lastUse {
				victim = base + i
			}
		}
	}
	e := &tc.entries[victim]
	e.valid = true
	e.tag = tag
	e.lastUse = tc.clock
	e.blocks = append(e.blocks[:0], blocks...)
	tc.stats.Fills++
}

// endsTrace reports whether a block terminates trace collection (trace
// caches segment at indirect transfers; we also segment at calls and
// returns, whose successors are not captured by the path).
func endsTrace(b *isa.Block) bool {
	if t := b.Terminator(); t != nil {
		switch t.Opcode {
		case isa.CALL, isa.RET, isa.JR, isa.HALT:
			return true
		}
	}
	return false
}

// retire feeds one committed block into the fill unit.
func (tc *traceCache) retire(b *isa.Block) {
	nbr := 0
	if t := b.Terminator(); t != nil && (t.Opcode == isa.BR || t.Opcode == isa.TRAP) {
		nbr = 1
	}
	if tc.fillOps+len(b.Ops) > traceMaxOps || len(tc.fill) >= traceMaxBlocks {
		tc.flushFill()
	}
	tc.fill = append(tc.fill, b.ID)
	tc.fillOps += len(b.Ops)
	tc.fillBranches += nbr
	if tc.fillBranches >= traceMaxBranches || endsTrace(b) || len(tc.fill) >= traceMaxBlocks {
		tc.flushFill()
	}
}

func (tc *traceCache) flushFill() {
	tc.store(tc.fill)
	tc.fill = tc.fill[:0]
	tc.fillOps = 0
	tc.fillBranches = 0
}

// onFetch is called when block b is about to be fetched at cycle `fetch`.
// It returns (coveredCycle, true) when an open trace window covers the block
// — its fetch costs no extra cycle — or opens a new window on a trace hit.
func (tc *traceCache) onFetch(b *isa.Block, fetch int64) (int64, bool) {
	if len(tc.window) > 0 {
		if tc.window[0] == b.ID {
			tc.window = tc.window[1:]
			tc.stats.Covered++
			return tc.windowCyc, true
		}
		// Divergence: the stored trace predicted a different block.
		tc.stats.BrokenEarly++
		tc.window = nil
	}
	tc.stats.Lookups++
	if e := tc.lookup(b.ID); e != nil {
		tc.stats.Hits++
		tc.window = append(tc.window[:0], e.blocks[1:]...)
		tc.windowCyc = fetch
	}
	return fetch, false
}

// breakWindow closes any open window (misprediction recovery redirects
// fetch).
func (tc *traceCache) breakWindow() {
	if len(tc.window) > 0 {
		tc.stats.BrokenEarly++
	}
	tc.window = nil
}
