package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// Store is a persistent content-addressed trace store layered under the
// in-memory artifact caches. Files are named by a hash of the artifact key
// (the same programKey/traceKey strings the caches use), so a store directory
// can be shared across restarts — and across processes — and a key can only
// ever resolve to bytes written for that exact program + emulation budget.
//
// Each file also carries the shaped program its trace was recorded from, so
// a restarted process decodes the program instead of compiling it
// (LoadTraceMapped with a nil program). The keys carry codegenStamp, so a
// compiler change retires every stored program.
//
// The store is strictly a cache tier: every read is re-validated (checksums
// and program shape, via emu.DecodeTrace) before it is served, a file that
// fails validation is quarantined and reported as a miss so the caller
// rebuilds from source, and every write goes through a temp file + fsync +
// rename + directory fsync so readers, concurrent writers, and fleet peers
// reading after a crash never observe a partial or zero-length committed
// file. Corruption is therefore never fatal and never poisons a key: the
// worst a flipped bit costs is one re-record.
//
// Every read goes through LoadTraceMapped: the fixed-stride file is mapped
// read-only and served as a borrowed zero-copy trace. A file in any other
// format version — one an older release wrote, say — fails validation like
// any corrupt file, so it costs one re-record. With SetMaxBytes the store
// garbage-collects itself, evicting quarantined files first and then
// least-recently-used ones — but never a file an in-flight replay still has
// mapped.
type Store struct {
	dir      string
	maxBytes atomic.Int64

	hits, misses, writes, corruptions atomic.Int64
	bytesRead, bytesWritten           atomic.Int64

	mmapMaps, mmapUnmaps atomic.Int64
	evictions            atomic.Int64
	residentBytes        atomic.Int64

	mu   sync.Mutex
	live map[string]*emu.TraceMapping // path → mapping with refs in flight

	gcMu sync.Mutex // serializes garbage-collection sweeps
}

// NewStore opens (creating if needed) a trace store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("svc: store: %w", err)
	}
	return &Store{dir: dir, live: make(map[string]*emu.TraceMapping)}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMaxBytes caps the total size of the store's *.bstr files and their
// quarantined *.bstr.corrupt copies; every write (and this call itself)
// triggers a sweep down to the cap. Zero or negative disables collection.
func (s *Store) SetMaxBytes(n int64) {
	s.maxBytes.Store(n)
	s.maybeGC()
}

// path maps an artifact key to its file. Keys are hashed so the filename is
// fixed-width and never leaks key syntax into the filesystem.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+".bstr")
}

// FilePath reports the file a key resolves to — for tooling and tests that
// inspect or seed store contents.
func (s *Store) FilePath(key string) string { return s.path(key) }

// LoadTraceMapped returns the stored trace for key as a reference-counted
// mapping, or ok=false on a miss. The file is memory-mapped read-only and
// served zero-copy. A nil prog takes the program from the file: it is
// decoded from the file's program section, laid out and validated, and
// Trace().Program() returns it. A file that exists but fails validation —
// bad checksum, truncation, a format version other than 3, a missing or bad
// program section when prog is nil, or a stream that does not match the
// program or cfg — is quarantined (renamed aside with a .corrupt suffix, for
// post mortems) and reported as a miss, so the caller falls through to a
// rebuild.
//
// The returned mapping carries one reference owned by the caller, who must
// Release it when the last replay using the trace has drained; the
// underlying pages stay mapped until then, so eviction or cache turnover can
// never unmap under an active replay.
func (s *Store) LoadTraceMapped(key string, prog *isa.Program, cfg emu.Config) (*emu.TraceMapping, bool) {
	p := s.path(key)
	m, err := emu.OpenTraceFile(p, prog)
	if err != nil || m.Trace().EmuConfig() != cfg {
		if err == nil {
			m.Release()
		}
		// Not-exists is the ordinary cold miss, and any other open or map
		// error (perms, I/O) degrades to a miss the same way — the store
		// never fails a job. Content that does not belong under this key —
		// rotted bytes, an old format, or another writer's file — is
		// quarantined.
		if err == nil || errors.Is(err, emu.ErrBadTrace) {
			s.quarantine(p)
			s.corruptions.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(m.SizeBytes())
	if m.ZeroCopy() {
		sz := m.SizeBytes()
		s.mmapMaps.Add(1)
		s.residentBytes.Add(sz)
		s.mu.Lock()
		s.live[p] = m
		s.mu.Unlock()
		m.OnRelease(func() {
			s.mmapUnmaps.Add(1)
			s.residentBytes.Add(-sz)
			s.mu.Lock()
			if s.live[p] == m {
				delete(s.live, p)
			}
			s.mu.Unlock()
		})
	}
	s.touch(p)
	return m, true
}

// MappedTrace is the handle LoadTraceMapped returns.
//
// Deprecated: use *emu.TraceMapping. The alias remains only because
// svcbench's replica names it.
type MappedTrace = emu.TraceMapping

// SaveTrace writes the trace, the program it was recorded from, and any aux
// sections for key atomically and durably: the temp file is fsynced before
// the rename and the directory after it, so a reader concurrent with this
// write sees either the old complete file or the new complete file — never a
// prefix, and (even across a crash) never a committed zero-length entry.
// Concurrent writers of one key are safe — each rename is atomic and both
// sides wrote equivalent content.
//
// The program's isa.Encode image (emu.ProgramSection) is written in the same
// file as the recording. When aux already starts with that section (AttachAux
// passes the file's own sections back), it is kept as it is. The file is
// streamed into the temp file (emu.Trace.Encode), so no image of it is held
// in memory.
func (s *Store) SaveTrace(key string, tr *emu.Trace, aux []emu.AuxSection) error {
	if len(aux) == 0 || aux[0].Tag != emu.ProgramTag {
		sec, err := emu.ProgramSection(tr.Program())
		if err != nil {
			return fmt.Errorf("svc: store: %w", err)
		}
		aux = append([]emu.AuxSection{sec}, aux...)
	}
	tmp, err := os.CreateTemp(s.dir, ".bstr-tmp-*")
	if err != nil {
		return fmt.Errorf("svc: store: %w", err)
	}
	n, werr := tr.Encode(tmp, aux)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.path(key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("svc: store: %w", werr)
	}
	syncDir(s.dir)
	s.writes.Add(1)
	s.bytesWritten.Add(n)
	s.maybeGC()
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: filesystems that cannot sync directories lose only the
// durability guarantee, not correctness, so errors are ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// touch bumps the file's access time so LRU eviction sees store hits, not
// just writes. Best-effort — on failure the file just looks colder than it
// is. The modification time is preserved.
func (s *Store) touch(path string) {
	if s.maxBytes.Load() <= 0 {
		return // nothing orders by atime, skip the stat+utimes round trip
	}
	if fi, err := os.Stat(path); err == nil {
		_ = os.Chtimes(path, time.Now(), fi.ModTime())
	}
}

// maybeGC sweeps the store down to the configured byte cap. Quarantined
// *.bstr.corrupt files count toward the cap and go first, since they are
// never served; then least-recently-used *.bstr files. A file whose mapping
// still has replays in flight is never evicted — it is skipped and
// reconsidered on the next sweep, after its last reference drains.
func (s *Store) maybeGC() {
	max := s.maxBytes.Load()
	if max <= 0 {
		return
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type cand struct {
		path        string
		size        int64
		atime       time.Time
		quarantined bool
	}
	var cands []cand
	total := int64(0)
	for _, de := range ents {
		name := de.Name()
		quarantined := strings.HasSuffix(name, ".bstr.corrupt")
		if de.IsDir() || !quarantined && !strings.HasSuffix(name, ".bstr") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{filepath.Join(s.dir, name), fi.Size(), atimeOf(fi), quarantined})
		total += fi.Size()
	}
	if total <= max {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].quarantined != cands[j].quarantined {
			return cands[i].quarantined
		}
		return cands[i].atime.Before(cands[j].atime)
	})
	for _, c := range cands {
		if total <= max {
			break
		}
		if s.isLive(c.path) {
			continue
		}
		if os.Remove(c.path) == nil {
			s.evictions.Add(1)
			total -= c.size
		}
	}
}

func (s *Store) isLive(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.live[path]
	return ok
}

// AttachAux upserts one tagged aux section into key's trace file: the current
// file's sections are re-read from disk (so a section another process attached
// since our load survives), the same-tag section is replaced, every other tag
// — the program section too — is preserved, and the merged file is rewritten
// atomically. A missing or invalid file degrades to writing the trace with
// just this section and the program — the attach never fails harder than a
// plain SaveTrace. Replays still mapped onto the replaced file are
// unaffected: the rename swaps the directory entry, and their pages stay
// live until the last reference drains. Sections are kept per tag so that
// one file serves the predecode table of every issue width swept against it.
//
// The current sections are read through a private mapping of the file, never
// a heap copy of it: their data aliases the mapping, so the mapping is
// released only after the rewrite has read them. The read bypasses the
// store's tiers, so it moves none of the hit or map counters.
func (s *Store) AttachAux(key string, tr *emu.Trace, sec emu.AuxSection) error {
	var sections []emu.AuxSection
	if m, err := emu.OpenTraceFile(s.path(key), tr.Program()); err == nil {
		defer m.Release()
		if m.Trace().EmuConfig() == tr.EmuConfig() {
			sections = m.Aux()
		}
	}
	merged := make([]emu.AuxSection, 0, len(sections)+1)
	inserted := false
	for _, other := range sections {
		switch {
		case other.Tag == sec.Tag:
			merged = append(merged, sec)
			inserted = true
		case other.Tag > sec.Tag && !inserted:
			merged = append(merged, sec, other)
			inserted = true
		default:
			merged = append(merged, other)
		}
	}
	if !inserted {
		merged = append(merged, sec)
	}
	return s.SaveTrace(key, tr, merged)
}

// quarantine moves a failed-validation file aside so it cannot be served
// again but stays inspectable. A second corruption of the same key
// overwrites the previous quarantine; if even the rename fails, the file is
// removed outright.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		os.Remove(path)
	}
}

// storeCounters is a consistent snapshot of the store's counters.
type storeCounters struct {
	Hits, Misses, Writes, Corruptions int64
	BytesRead, BytesWritten           int64
	MmapMaps, MmapUnmaps              int64
	Evictions                         int64
	ResidentBytes                     int64
}

func (s *Store) counters() storeCounters {
	return storeCounters{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		Corruptions:   s.corruptions.Load(),
		BytesRead:     s.bytesRead.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		MmapMaps:      s.mmapMaps.Load(),
		MmapUnmaps:    s.mmapUnmaps.Load(),
		Evictions:     s.evictions.Load(),
		ResidentBytes: s.residentBytes.Load(),
	}
}
