package uarch

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"unsafe"

	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// This file is the sweep's one outcome format and the memo that keeps it.
// A sweep holds each predictor class's outcomes as two sparse streams
// (outcomeStreams) and the committed loads' outcomes as one bitset: pass B
// (sweep.go) writes the streams, pass A the bitset, and the fold worker
// reads each class's entry at the event it walks through one cursor over
// the streams. A memo-less sweep cuts its streams after each chunk; a sweep
// that records the memo keeps them whole and publishes them as written; a
// sweep the memo serves walks the memo's records in place, skipping the
// replay, the dcache, the Bank and every StackDist walk. So every sweep
// runs the same writer and the same reader, and a served sweep walks the
// very bytes its recording sweep walked.
//
// A class's outcomes depend on the trace, the predictor, the icache ways and
// line size, and the profiled size range; the committed loads' outcomes on
// the trace and the dcache. Neither depends on any core-geometry knob, so a
// record serves every grid that shares them.

// noEvent is the event of an entry not yet written: past every event.
const noEvent = math.MaxInt

// outcomeStreams is one predictor class's outcomes in event order, with the
// writer's and the cursor's positions in them.
//
// mps holds each misprediction: a varint of the event's distance from the
// previous misprediction, shifted left 2, with the kind less one in the low
// bits. A fault adds a varint of its wrongly fetched variant's successor
// index, shifted left 1, whose low bit says its wrong-path misses follow
// (appendLevels). misses holds each event whose fetch misses the smallest
// profiled level: a varint of its distance from the previous such event,
// then its misses per level. A larger icache misses a subset of a smaller
// one's lines, so an event that misses no line at the smallest level misses
// none at any, and a fault's wrong-path misses follow exactly when the
// smallest level missed.
//
// The cursor reads the entries back one event at a time: the walk calls at
// on every event, and lanes read the entries it decoded there.
type outcomeStreams struct {
	mps, misses []byte

	// The writer: the events of the last entries appended.
	wMp, wMiss int

	// The cursor: read offsets, the events of the last entry headers read
	// (which the next deltas count from), the events of the entries read
	// ahead (noEvent when the streams hold no further entry yet), the
	// earlier of the two, and the read-ahead misprediction's kind.
	rMp, rMiss       int
	lastMp, lastMiss int
	nextMp, nextMiss int
	next             int
	nextKind         uint8

	// The entries decoded at the current event, one slot per level plus a
	// last one, always 0, that lanes with a perfect icache read: fetch, the
	// fetch probe's misses (fetchLevels when the event has a fetch-miss
	// entry, zeros when not), and when mp is set the misprediction's kind,
	// its wrongly fetched block (a fault's) and that fetch's misses.
	fetch              []int
	mp                 bool
	kind               uint8
	wrongBlock         isa.BlockID
	wrongLevels        []int
	fetchLevels, zeros []int
}

// newOutcomeStreams returns empty streams of a class profiled at levels
// icache levels (0 when it has none).
func newOutcomeStreams(levels int) outcomeStreams {
	s := outcomeStreams{
		nextMp: noEvent, nextMiss: noEvent, next: noEvent,
		wrongLevels: make([]int, levels+1), fetchLevels: make([]int, levels+1), zeros: make([]int, levels+1),
	}
	s.fetch = s.zeros
	return s
}

// levels is the number of icache levels the class is profiled at.
func (s *outcomeStreams) levels() int { return len(s.zeros) - 1 }

// appendMp appends the misprediction of event ev, block b: its kind, and
// for a fault the successor of b it wrongly fetched and that fetch's misses
// per level (the class's levels; nil when it is not profiled).
func (s *outcomeStreams) appendMp(ev int, kind uint8, b *isa.Block, wrong isa.BlockID, misses []int) {
	s.mps = binary.AppendUvarint(s.mps, uint64(ev-s.wMp)<<2|uint64(kind-1))
	s.wMp = ev
	if kind != mpFault {
		return
	}
	succ := uint64(b.SuccIndex(wrong))
	if len(misses) > 0 && misses[0] != 0 {
		s.mps = binary.AppendUvarint(s.mps, succ<<1|1)
		s.mps = appendLevels(s.mps, misses)
	} else {
		s.mps = binary.AppendUvarint(s.mps, succ<<1)
	}
}

// appendMiss appends the fetch misses per level of event ev, whose fetch
// missed the smallest level.
func (s *outcomeStreams) appendMiss(ev int, levels []int) {
	s.misses = binary.AppendUvarint(s.misses, uint64(ev-s.wMiss))
	s.misses = appendLevels(s.misses, levels)
	s.wMiss = ev
}

// cut drops the entries the cursor has read, which must be all of them, and
// keeps the buffers for the next chunk's.
func (s *outcomeStreams) cut() {
	s.mps, s.misses = s.mps[:0], s.misses[:0]
	s.rMp, s.rMiss = 0, 0
}

// sync reads ahead the first entries written since the cursor last ran out.
// The walk calls it before each chunk.
func (s *outcomeStreams) sync() {
	if s.nextMp == noEvent {
		s.readMp()
	}
	if s.nextMiss == noEvent {
		s.readMiss()
	}
	s.next = min(s.nextMp, s.nextMiss)
}

// at decodes the class's entries for event ev, block id. The walk calls it
// at every event in order; an event without entries costs one compare.
func (s *outcomeStreams) at(ev int, prog *isa.Program, id isa.BlockID) {
	if ev == s.next {
		s.decode(ev, prog.Blocks[id])
		return
	}
	s.fetch, s.mp = s.zeros, false
}

// decode reads the entries of event ev, block b, and the headers after them.
func (s *outcomeStreams) decode(ev int, b *isa.Block) {
	levels := s.levels()
	s.fetch, s.mp = s.zeros, ev == s.nextMp
	if s.mp {
		s.kind = s.nextKind
		if s.kind == mpFault {
			f, n := binary.Uvarint(s.mps[s.rMp:])
			s.rMp += n
			s.wrongBlock = b.Succs[f>>1]
			if f&1 != 0 {
				s.rMp = getLevels(s.mps, s.rMp, s.wrongLevels[:levels])
			} else {
				clear(s.wrongLevels)
			}
		}
		s.readMp()
	}
	if ev == s.nextMiss {
		s.rMiss = getLevels(s.misses, s.rMiss, s.fetchLevels[:levels])
		s.fetch = s.fetchLevels
		s.readMiss()
	}
	s.next = min(s.nextMp, s.nextMiss)
}

// readMp reads the next misprediction's header, if written.
func (s *outcomeStreams) readMp() {
	s.nextMp = noEvent
	if s.rMp < len(s.mps) {
		h, n := binary.Uvarint(s.mps[s.rMp:])
		s.rMp += n
		s.lastMp += int(h >> 2)
		s.nextMp, s.nextKind = s.lastMp, uint8(h&3)+1
	}
}

// readMiss reads the next fetch miss's event, if written.
func (s *outcomeStreams) readMiss() {
	s.nextMiss = noEvent
	if s.rMiss < len(s.misses) {
		d, n := binary.Uvarint(s.misses[s.rMiss:])
		s.rMiss += n
		s.lastMiss += int(d)
		s.nextMiss = s.lastMiss
	}
}

// entryBytes bounds the bytes one event's entries take in a class's streams
// at levels profiled levels (0 when the class is not profiled), less the
// level counts appendLevels writes as varints of their own, which a larger
// icache's subset of misses makes rare: a misprediction's event and kind
// and a fault's successor index and, where the class is profiled, a
// fault's misses per level and a fetch miss's event and misses per level.
// Every value fits 32 bits.
func entryBytes(levels int) int64 {
	n := 2 * binary.MaxVarintLen32
	if levels > 0 {
		n += binary.MaxVarintLen32 + 2*(binary.MaxVarintLen32+(levels+2)/4)
	}
	return int64(n)
}

// appendLevels appends per-level miss counts: the first level's as a
// varint, then one 2-bit code per further level, four to a byte — 0 the
// same count as the level before, 1 none, 2 one fewer than the level
// before, 3 the count as a varint after the codes. A larger icache misses a
// subset of a smaller one's lines, so codes 0–2 cover nearly every entry.
func appendLevels(buf []byte, v []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(v[0]))
	codes := len(buf)
	for range (len(v) + 2) / 4 {
		buf = append(buf, 0)
	}
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

// getLevels decodes, at buf[pos:], the len(dst) counts that appendLevels
// wrote into dst, and returns the offset past them.
func getLevels(buf []byte, pos int, dst []int) int {
	v, n := binary.Uvarint(buf[pos:])
	pos += n
	m := int(v)
	dst[0] = m
	codes := pos
	pos += (len(dst) + 2) / 4
	for l := 1; l < len(dst); l++ {
		switch buf[codes+(l-1)/4] >> (2 * ((l - 1) % 4)) & 3 {
		case 1:
			m = 0
		case 2:
			m--
		case 3:
			v, n = binary.Uvarint(buf[pos:])
			pos += n
			m = int(v)
		}
		dst[l] = m
	}
	return pos
}

// loadBits is a committed-load outcome stream: bit i set where load i
// missed the dcache, n loads in all.
type loadBits struct {
	w []uint64
	n int
}

// cut drops every outcome, keeping the buffer.
func (l *loadBits) cut() { l.w, l.n = l.w[:0], 0 }

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

// memoClass is one predictor class's published record: its two streams
// over the whole trace, as a recording sweep wrote them, and the
// end-of-trace numbers lanes read: the class's line accesses, its
// predictor's statistics, and its icache statistics per profiled level.
type memoClass struct {
	mps, misses []byte
	accesses    int64
	bp          bpred.Stats
	ic          []cache.Stats
}

// classRecordBytes is the bytes a class record of streams stream bytes and
// levels icache levels holds, for the memo's bound.
func classRecordBytes(streams, levels int) int64 {
	return int64(unsafe.Sizeof(memoClass{})) + int64(streams) + int64(levels)*int64(unsafe.Sizeof(cache.Stats{}))
}

// memoLoads is the record of the trace's committed loads under one dcache:
// the load bitset, the bit at which each chunk's loads start (and the total
// after the last chunk), and the dcache's statistics.
type memoLoads struct {
	miss  []uint64
	at    []int64
	stats cache.Stats
}

// loadRecordBytes is the bytes a load record of words bitset words and
// chunks chunk starts holds.
func loadRecordBytes(words, chunks int) int64 {
	return int64(unsafe.Sizeof(memoLoads{})) + 8*int64(words+chunks)
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
		if cls.levels() > 0 {
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

// memoRecording is a sweep that runs the enrichment recording what its memo
// lacks: each class the memo lacks keeps its streams whole (sweepClass.keep)
// and, when the memo lacks the load record, the enrichment keeps its load
// bitset whole (loads) and at holds each chunk's first bit. Together they
// never hold more than the memo's room at the sweep's start.
type memoRecording struct {
	memo  *OutcomeMemo
	dc    cache.Config
	room  int64
	keys  []memoClassKey
	loads bool
	at    []int64
}

// newMemoRecording starts recording what the memo lacks of a sweep's
// records (have and loads, from lookup), marking the classes to keep. It
// returns nil for a nil memo.
func (m *OutcomeMemo) newMemoRecording(keys []memoClassKey, have []*memoClass, dc cache.Config, loads *memoLoads, classes []*sweepClass) *memoRecording {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	room := m.limit - m.bytes
	m.mu.Unlock()
	for c, rec := range have {
		classes[c].keep = rec == nil
	}
	return &memoRecording{memo: m, dc: dc, room: room, keys: keys, loads: loads == nil}
}

// add notes the start bit of the chunk just enriched, whose loads ld ends,
// and keeps the recording within the memo's room: past it, it stops keeping
// classes from the last one back, and the load bitset last.
func (r *memoRecording) add(first int, ld *loadBits, classes []*sweepClass) {
	total := int64(0)
	if r.loads {
		r.at = append(r.at, int64(first))
		total = loadRecordBytes(len(ld.w), len(r.at))
	}
	for _, cls := range classes {
		if cls.keep {
			total += classRecordBytes(len(cls.mps)+len(cls.misses), 0)
		}
	}
	for c := len(classes) - 1; c >= 0 && total > r.room; c-- {
		if cls := classes[c]; cls.keep {
			total -= classRecordBytes(len(cls.mps)+len(cls.misses), 0)
			cls.keep = false
		}
	}
	if total > r.room {
		r.loads = false
	}
}

// publish adds the completed sweep's records to the memo, each only while
// the memo stays within its bound and only where no concurrent sweep
// published the same record first: the load record first, then the
// classes in order. Records copy the bytes the sweep wrote, ld's bitset and
// each kept class's streams, with the class's end-of-trace numbers and the
// dcache's statistics dc. It reports whether the memo kept any record.
func (r *memoRecording) publish(ld *loadBits, classes []*sweepClass, dc cache.Stats) bool {
	m := r.memo
	var loads *memoLoads
	if r.loads {
		loads = &memoLoads{miss: slices.Clone(ld.w), at: append(slices.Clone(r.at), int64(ld.n)), stats: dc}
	}
	recs := make([]*memoClass, len(classes))
	for c, cls := range classes {
		if cls.keep {
			recs[c] = &memoClass{
				mps:      slices.Clone(cls.mps),
				misses:   slices.Clone(cls.misses),
				accesses: cls.accesses,
				bp:       cls.bp,
				ic:       cls.ic,
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := false
	if loads != nil && m.loads[r.dc] == nil {
		if n := loadRecordBytes(len(loads.miss), len(loads.at)); m.bytes+n <= m.limit {
			m.loads[r.dc] = loads
			m.bytes += n
			kept = true
		}
	}
	for c, rec := range recs {
		if rec == nil || m.classes[r.keys[c]] != nil {
			continue
		}
		if n := classRecordBytes(len(rec.mps)+len(rec.misses), len(rec.ic)); m.bytes+n <= m.limit {
			m.classes[r.keys[c]] = rec
			m.bytes += n
			kept = true
		}
	}
	return kept
}
