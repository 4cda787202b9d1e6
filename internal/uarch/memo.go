package uarch

import (
	"encoding/binary"
	"slices"
	"sync"
	"unsafe"

	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// This file is the sweep's outcome memo: a sparse whole-trace record of what
// the enrichment (passes A and B, sweep.go) produces for each predictor
// class, so that a later sweep of the same trace whose classes are all
// recorded skips the replay, the dcache, the Bank and every StackDist walk.
// Such a sweep refills each chunk's tables from the records and runs the
// unchanged fold worker over them: the memo is the chunk tables' second
// producer, never a second lane loop.
//
// A class's outcomes depend on the trace, the predictor, the icache ways and
// line size, and the profiled size range; the committed loads' outcomes on
// the trace and the dcache. Neither depends on any core-geometry knob, so a
// record serves every grid that shares them.

// OutcomeMemo holds one trace's recorded sweep outcomes across sweeps. It
// never holds more bytes than the trace's Footprint: a record that would
// cross that bound is not kept. Records are immutable once published;
// concurrent sweeps of the trace read and add under one lock. The zero
// value is unusable; build one with NewOutcomeMemo.
type OutcomeMemo struct {
	tr    *emu.Trace
	limit int64

	mu      sync.Mutex
	bytes   int64
	classes map[memoClassKey]*memoClass
	loads   map[cache.Config]*memoLoads
}

// NewOutcomeMemo returns an empty memo for t. It allocates no record until
// a sweep of t publishes one.
func NewOutcomeMemo(t *emu.Trace) *OutcomeMemo {
	return &OutcomeMemo{
		tr:      t,
		limit:   t.Footprint(),
		classes: map[memoClassKey]*memoClass{},
		loads:   map[cache.Config]*memoLoads{},
	}
}

// Bytes reports the bytes the memo's records hold, at most the trace's
// Footprint.
func (m *OutcomeMemo) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// memoClassKey names one predictor class's record. pred is the normalized
// predictor, zero for the class "none" (perfect prediction, or a backend
// without a predictor). icache holds the ways and line size, with
// SizeBytes zero; minSize and maxSize are the profiled range, both zero
// when no lane of the class has a real icache.
type memoClassKey struct {
	pred             bpred.Config
	none             bool
	icache           cache.Config
	minSize, maxSize int
}

// memoClass is one predictor class's published record.
//
// mps holds each misprediction in event order: a varint of the event's
// distance from the previous misprediction, shifted left 2, with the kind
// less one in the low bits. A fault adds a varint of its wrongly fetched
// variant's successor index, shifted left 1, whose low bit says its
// wrong-path misses follow (appendLevels). misses holds each event whose
// fetch misses any profiled level: a varint of its distance from the
// previous such event, then its misses per level.
//
// chunkMps is the most mispredictions any chunk holds, which sizes the
// chunk tables a refill needs. accesses, bp and ic are the end-of-trace
// numbers lanes read: the class's line accesses, its predictor's
// statistics, and its icache statistics per profiled level.
type memoClass struct {
	levels      int
	mps, misses []byte
	chunkMps    int
	accesses    int64
	bp          bpred.Stats
	ic          []cache.Stats
}

// size is the bytes the record holds, for the memo's bound.
func (r *memoClass) size() int64 {
	return int64(unsafe.Sizeof(*r)) + int64(len(r.mps)+len(r.misses)) + int64(len(r.ic))*int64(unsafe.Sizeof(cache.Stats{}))
}

// memoLoads is the record of the trace's committed loads under one dcache:
// one bit per load, set where it missed, the bit at which each chunk's
// loads start (and the total after the last chunk), and the dcache's
// statistics.
type memoLoads struct {
	miss  []uint64
	at    []int64
	stats cache.Stats
}

func (r *memoLoads) size() int64 {
	return int64(unsafe.Sizeof(*r)) + 8*int64(len(r.miss)+len(r.at))
}

// memoKeys returns the record key of each of a sweep's classes.
func memoKeys(base Config, classCfgs []bpred.Config, classes []*sweepClass, minSize, maxSize int) []memoClassKey {
	keys := make([]memoClassKey, len(classes))
	for c, cls := range classes {
		k := memoClassKey{none: classCfgs == nil, icache: base.ICache}
		k.icache.SizeBytes = 0
		if classCfgs != nil {
			k.pred = classCfgs[c]
		}
		if cls.levels > 0 {
			k.minSize, k.maxSize = minSize, maxSize
		}
		keys[c] = k
	}
	return keys
}

// lookup returns the published record of each key (nil where there is
// none) and the load record for dcache dc (nil if none). A nil memo has
// none.
func (m *OutcomeMemo) lookup(keys []memoClassKey, dc cache.Config) ([]*memoClass, *memoLoads) {
	recs := make([]*memoClass, len(keys))
	if m == nil {
		return recs, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for c, k := range keys {
		recs[c] = m.classes[k]
	}
	return recs, m.loads[dc]
}

// memoRecording collects, over a sweep that runs the enrichment, the
// records its memo lacks: the load record when lacking, and one record per
// missing class. Together they never hold more than the memo's room at the
// sweep's start.
type memoRecording struct {
	memo    *OutcomeMemo
	dc      cache.Config
	room    int64
	loads   *memoLoads
	nLoads  int64
	keys    []memoClassKey
	classes []*memoRecorder // nil where the memo has the class, or it was dropped
}

// memoRecorder appends one class's outcomes a chunk at a time. mpEv and
// missEv are the events of the last entries written.
type memoRecorder struct {
	rec           memoClass
	mpEv, missEv  int
	levelsScratch []int32
}

// newMemoRecording starts recording what the memo lacks of a sweep's
// records (have and loads, from lookup). It returns nil for a nil memo.
func (m *OutcomeMemo) newMemoRecording(keys []memoClassKey, have []*memoClass, dc cache.Config, loads *memoLoads) *memoRecording {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	room := m.limit - m.bytes
	m.mu.Unlock()
	r := &memoRecording{memo: m, dc: dc, room: room, keys: keys, classes: make([]*memoRecorder, len(keys))}
	if loads == nil {
		r.loads = &memoLoads{}
	}
	for c, rec := range have {
		if rec == nil {
			r.classes[c] = &memoRecorder{}
		}
	}
	return r
}

// add appends one chunk's outcomes, the events from base on: the chunk's
// load outcomes ldMiss and each recorded class's tables. Past the room it
// drops classes from the last one back, and the load record last.
func (r *memoRecording) add(prog *isa.Program, ids []isa.BlockID, base int, ldMiss []uint8, classes []*sweepClass) {
	if l := r.loads; l != nil {
		l.at = append(l.at, r.nLoads)
		for _, miss := range ldMiss {
			if r.nLoads&63 == 0 {
				l.miss = append(l.miss, 0)
			}
			l.miss[r.nLoads>>6] |= uint64(miss) << (r.nLoads & 63)
			r.nLoads++
		}
	}
	for c, w := range r.classes {
		if w != nil {
			w.add(prog, ids, base, classes[c])
		}
	}
	// Keep within the memo's room, dropping classes from the last one back.
	total := int64(0)
	if r.loads != nil {
		total = r.loads.size()
	}
	for _, w := range r.classes {
		if w != nil {
			total += w.rec.size()
		}
	}
	for c := len(r.classes) - 1; c >= 0 && total > r.room; c-- {
		if w := r.classes[c]; w != nil {
			total -= w.rec.size()
			r.classes[c] = nil
		}
	}
	if total > r.room {
		r.loads = nil
	}
}

// add appends the class's outcomes for one chunk, the events from base on.
func (w *memoRecorder) add(prog *isa.Program, ids []isa.BlockID, base int, cls *sweepClass) {
	lv := cls.levels
	w.rec.chunkMps = max(w.rec.chunkMps, len(cls.mps))
	for i, at := range cls.mpAt[:len(ids)] {
		if at == 0 {
			continue
		}
		k := int(at - 1)
		mp := cls.mps[k]
		ev := base + i
		w.rec.mps = binary.AppendUvarint(w.rec.mps, uint64(ev-w.mpEv)<<2|uint64(mp.kind-1))
		w.mpEv = ev
		if mp.kind != mpFault {
			continue
		}
		succ := uint64(prog.Blocks[ids[i]].SuccIndex(mp.block))
		var wrong []int32
		if lv > 0 {
			wrong = cls.wrongMiss[k*lv : (k+1)*lv]
		}
		if slices.ContainsFunc(wrong, func(m int32) bool { return m != 0 }) {
			w.rec.mps = binary.AppendUvarint(w.rec.mps, succ<<1|1)
			w.rec.mps = appendLevels(w.rec.mps, wrong)
		} else {
			w.rec.mps = binary.AppendUvarint(w.rec.mps, succ<<1)
		}
	}
	if lv == 0 {
		return
	}
	stride := len(cls.mpAt)
	w.levelsScratch = slices.Grow(w.levelsScratch[:0], lv)[:lv]
	for i := range ids {
		missed := false
		for l := range w.levelsScratch {
			m := cls.fetchMiss[l*stride+i]
			w.levelsScratch[l] = m
			missed = missed || m != 0
		}
		if missed {
			ev := base + i
			w.rec.misses = binary.AppendUvarint(w.rec.misses, uint64(ev-w.missEv))
			w.rec.misses = appendLevels(w.rec.misses, w.levelsScratch)
			w.missEv = ev
		}
	}
}

// publish adds the completed sweep's records to the memo, each only while
// the memo stays within its bound and only where no concurrent sweep
// published the same record first: the load record first, then the
// classes in order. classes carry the end-of-trace numbers and dc the
// dcache's statistics. It reports whether the memo kept any record.
func (r *memoRecording) publish(classes []*sweepClass, dc cache.Stats) bool {
	m := r.memo
	var loads *memoLoads
	if r.loads != nil {
		loads = &memoLoads{
			miss:  slices.Clone(r.loads.miss),
			at:    append(slices.Clone(r.loads.at), r.nLoads),
			stats: dc,
		}
	}
	recs := make([]*memoClass, len(r.classes))
	for c, w := range r.classes {
		if w == nil {
			continue
		}
		cls := classes[c]
		recs[c] = &memoClass{
			levels:   cls.levels,
			mps:      slices.Clone(w.rec.mps),
			misses:   slices.Clone(w.rec.misses),
			chunkMps: w.rec.chunkMps,
			accesses: cls.accesses,
			bp:       cls.bp,
			ic:       cls.ic,
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := false
	if loads != nil && m.loads[r.dc] == nil && m.bytes+loads.size() <= m.limit {
		m.loads[r.dc] = loads
		m.bytes += loads.size()
		kept = true
	}
	for c, rec := range recs {
		if rec != nil && m.classes[r.keys[c]] == nil && m.bytes+rec.size() <= m.limit {
			m.classes[r.keys[c]] = rec
			m.bytes += rec.size()
			kept = true
		}
	}
	return kept
}

// memoReader refills one class's chunk tables from its record, a chunk at a
// time in event order. mp and miss are read offsets into the record's
// streams, and mpEv and missEv the events of the entries last read.
type memoReader struct {
	rec          *memoClass
	mp, miss     int
	mpEv, missEv int
}

// newMemoReader returns a reader of rec that refills cls, sizing cls's
// misprediction tables for the record's fullest chunk.
func newMemoReader(rec *memoClass, cls *sweepClass) memoReader {
	cls.mps = make([]sweepMp, 0, rec.chunkMps)
	cls.wrongMiss = make([]int32, 0, rec.chunkMps*cls.levels)
	return memoReader{rec: rec}
}

// fill refills cls's tables for the chunk of events ids, the events from
// base on.
func (r *memoReader) fill(prog *isa.Program, ids []isa.BlockID, base int, cls *sweepClass) {
	end, lv := base+len(ids), cls.levels
	clear(cls.mpAt[:len(ids)])
	cls.mps, cls.wrongMiss = cls.mps[:0], cls.wrongMiss[:0]
	for mps := r.rec.mps; r.mp < len(mps); {
		h, n := binary.Uvarint(mps[r.mp:])
		ev := r.mpEv + int(h>>2)
		if ev >= end {
			break
		}
		r.mp += n
		r.mpEv = ev
		mp := sweepMp{kind: uint8(h&3) + 1, block: isa.NoBlock}
		k := len(cls.mps)
		cls.wrongMiss = cls.wrongMiss[:(k+1)*lv]
		if mp.kind == mpFault {
			f, n := binary.Uvarint(mps[r.mp:])
			r.mp += n
			mp.block = prog.Blocks[ids[ev-base]].Succs[f>>1]
			if f&1 != 0 {
				r.mp = getLevels(mps, r.mp, cls.wrongMiss[k*lv:], 1, lv)
			} else {
				clear(cls.wrongMiss[k*lv:])
			}
		}
		cls.mps = append(cls.mps, mp)
		cls.mpAt[ev-base] = int32(len(cls.mps))
	}
	if lv == 0 {
		return
	}
	clear(cls.fetchMiss)
	stride := len(cls.mpAt)
	for misses := r.rec.misses; r.miss < len(misses); {
		d, n := binary.Uvarint(misses[r.miss:])
		ev := r.missEv + int(d)
		if ev >= end {
			break
		}
		r.miss = getLevels(misses, r.miss+n, cls.fetchMiss[ev-base:], stride, lv)
		r.missEv = ev
	}
}

// chunkLoads is the most committed loads any chunk holds.
func (r *memoLoads) chunkLoads() int {
	n := int64(0)
	for c := 1; c < len(r.at); c++ {
		n = max(n, r.at[c]-r.at[c-1])
	}
	return int(n)
}

// fillLoads expands chunk c's load outcomes from the load record into dst.
func (r *memoLoads) fillLoads(dst []uint8, c int) []uint8 {
	dst = dst[:0]
	for j := r.at[c]; j < r.at[c+1]; j++ {
		dst = append(dst, uint8(r.miss[j>>6]>>(j&63)&1))
	}
	return dst
}

// appendLevels appends per-level miss counts: the first level's as a
// varint, then one 2-bit code per further level, four to a byte — 0 the
// same count as the level before, 1 none, 2 one fewer than the level
// before, 3 the count as a varint after the codes. A larger icache misses a
// subset of a smaller one's lines, so codes 0–2 cover nearly every entry.
func appendLevels(buf []byte, v []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(v[0]))
	codes := len(buf)
	buf = append(buf, make([]byte, (len(v)+2)/4)...)
	for l := 1; l < len(v); l++ {
		var code byte
		switch prev := v[l-1]; v[l] {
		case prev:
			code = 0
		case 0:
			code = 1
		case prev - 1:
			code = 2
		default:
			code = 3
			buf = binary.AppendUvarint(buf, uint64(v[l]))
		}
		buf[codes+(l-1)/4] |= code << (2 * ((l - 1) % 4))
	}
	return buf
}

// getLevels decodes, at buf[pos:], the counts of levels levels that
// appendLevels wrote, into dst[0], dst[step], dst[2*step]..., and returns
// the offset past them.
func getLevels(buf []byte, pos int, dst []int32, step, levels int) int {
	v, n := binary.Uvarint(buf[pos:])
	pos += n
	m := int32(v)
	dst[0] = m
	codes := pos
	pos += (levels + 2) / 4
	for l := 1; l < levels; l++ {
		switch buf[codes+(l-1)/4] >> (2 * ((l - 1) % 4)) & 3 {
		case 1:
			m = 0
		case 2:
			m--
		case 3:
			v, n = binary.Uvarint(buf[pos:])
			pos += n
			m = int32(v)
		}
		dst[l*step] = m
	}
	return pos
}
