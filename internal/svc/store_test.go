package svc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
	"bsisa/internal/workload"
)

// storeTrace records a small deterministic trace for store tests.
func storeTrace(t *testing.T, seed int64) (*isa.Program, *emu.Trace) {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "t", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, tr
}

// loadTrace serves key through LoadTraceMapped for tests that only read the
// trace; the mapping is released when the test ends.
func loadTrace(t *testing.T, st *Store, key string, prog *isa.Program, cfg emu.Config) (*emu.Trace, []emu.AuxSection, bool) {
	t.Helper()
	m, ok := st.LoadTraceMapped(key, prog, cfg)
	if !ok {
		return nil, nil, false
	}
	t.Cleanup(m.Release)
	return m.Trace(), m.Aux(), true
}

// programSection is the aux section SaveTrace writes for prog.
func programSection(t *testing.T, prog *isa.Program) emu.AuxSection {
	t.Helper()
	sec, err := emu.ProgramSection(prog)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// fileSize reports the size of key's store file.
func fileSize(t *testing.T, st *Store, key string) int64 {
	t.Helper()
	fi, err := os.Stat(st.FilePath(key))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// requireSame asserts the loaded trace is the one SaveTrace(key, want,
// wantAux) wrote, field for field: same event stream, same emulator result,
// a byte-identical re-encode, and the program section ahead of wantAux.
func requireSame(t *testing.T, want, got *emu.Trace, wantAux, gotAux []emu.AuxSection) {
	t.Helper()
	wantAux = append([]emu.AuxSection{programSection(t, want.Program())}, wantAux...)
	if !reflect.DeepEqual(got.BlockIDs(), want.BlockIDs()) {
		t.Fatal("loaded trace's event stream diverges")
	}
	if !reflect.DeepEqual(got.EmuResult(), want.EmuResult()) {
		t.Fatalf("loaded trace's result diverges: %+v vs %+v", got.EmuResult(), want.EmuResult())
	}
	if got.EmuConfig() != want.EmuConfig() {
		t.Fatalf("loaded trace's config diverges: %+v vs %+v", got.EmuConfig(), want.EmuConfig())
	}
	if !bytes.Equal(got.EncodeBytes(gotAux), want.EncodeBytes(wantAux)) {
		t.Fatal("loaded trace does not re-encode byte-identically")
	}
	if !reflect.DeepEqual(gotAux, wantAux) {
		t.Fatalf("aux sections diverge: %+v vs %+v", gotAux, wantAux)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4242)
	key := traceKey("prog-a", 0)

	if _, _, ok := loadTrace(t, st, key, prog, emu.Config{}); ok {
		t.Fatal("cold store claims a hit")
	}
	aux := []emu.AuxSection{{Tag: 16, Data: []byte("predecode-blob")}}
	if err := st.SaveTrace(key, tr, aux); err != nil {
		t.Fatal(err)
	}
	got, gotAux, ok := loadTrace(t, st, key, prog, emu.Config{})
	if !ok {
		t.Fatal("stored trace not served back")
	}
	requireSame(t, tr, got, aux, gotAux)

	cc := st.counters()
	if cc.Hits != 1 || cc.Misses != 1 || cc.Writes != 1 || cc.Corruptions != 0 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss / 1 write", cc)
	}
	if cc.BytesRead == 0 || cc.BytesWritten == 0 || cc.BytesRead != cc.BytesWritten {
		t.Fatalf("byte counters = %+v, want equal nonzero read/written", cc)
	}

	// A second store opened on the same directory serves the same bytes: the
	// restart warm-start contract.
	st2, err := NewStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got2, gotAux2, ok := loadTrace(t, st2, key, prog, emu.Config{})
	if !ok {
		t.Fatal("reopened store misses a persisted trace")
	}
	requireSame(t, tr, got2, aux, gotAux2)
}

// TestStoreQuarantinesCorruption damages the stored file every way the
// acceptance criteria name — truncation, a flipped byte, a wrong or legacy
// format version — and requires each to be detected, quarantined, and
// rebuilt rather than served or fatal.
func TestStoreQuarantinesCorruption(t *testing.T) {
	prog, tr := storeTrace(t, 4243)
	good := tr.EncodeBytes(nil)
	version := func(v byte) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = v
			return c
		}
	}
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/3] ^= 0x40
			return c
		}},
		{"wrong-version", version(99)},
		// Files older releases wrote in the varint layouts carry version 1
		// or 2; the store treats them as corrupt and re-records.
		{"legacy-v1", version(1)},
		{"legacy-v2", version(2)},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := traceKey("prog-b", 0)
			p := st.path(key)
			if err := os.WriteFile(p, tc.mut(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := loadTrace(t, st, key, prog, emu.Config{}); ok {
				t.Fatal("corrupt file served as a hit")
			}
			cc := st.counters()
			if cc.Corruptions != 1 || cc.Hits != 0 {
				t.Fatalf("counters = %+v, want 1 corruption / 0 hits", cc)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("corrupt file still resolvable under its key")
			}
			if _, err := os.Stat(p + ".corrupt"); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
			// The key is not poisoned: a rebuild writes through and serves.
			if err := st.SaveTrace(key, tr, nil); err != nil {
				t.Fatal(err)
			}
			got, gotAux, ok := loadTrace(t, st, key, prog, emu.Config{})
			if !ok {
				t.Fatal("rebuilt trace not served")
			}
			requireSame(t, tr, got, nil, gotAux)
		})
	}
}

// TestStoreAttachAuxPerWidth is the regression test for the per-width aux
// fix: attaching a predecode blob for a second issue width must preserve the
// first width's blob (the old single-section format let the last writer win),
// and re-attaching an existing width replaces only that width's payload.
// The program section must survive every attach.
func TestStoreAttachAuxPerWidth(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4248)
	key := traceKey("prog-e", 0)
	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}

	// Attach width 16 first, then width 8: both must survive, in tag order.
	before := st.counters()
	if err := st.AttachAux(key, tr, emu.AuxSection{Tag: 16, Data: []byte("wide")}); err != nil {
		t.Fatal(err)
	}
	if err := st.AttachAux(key, tr, emu.AuxSection{Tag: 8, Data: []byte("narrow")}); err != nil {
		t.Fatal(err)
	}
	// Reading the current sections bypasses the store's tiers.
	if after := st.counters(); after.Hits != before.Hits || after.MmapMaps != before.MmapMaps ||
		after.MmapUnmaps != before.MmapUnmaps || after.ResidentBytes != before.ResidentBytes {
		t.Fatalf("AttachAux moved the hit/map counters: before %+v, after %+v", before, after)
	}
	want := []emu.AuxSection{{Tag: 8, Data: []byte("narrow")}, {Tag: 16, Data: []byte("wide")}}
	got, gotAux, ok := loadTrace(t, st, key, prog, emu.Config{})
	if !ok {
		t.Fatal("trace with attached aux not served")
	}
	requireSame(t, tr, got, want, gotAux)

	// Re-attaching a width replaces that payload without touching the other.
	if err := st.AttachAux(key, tr, emu.AuxSection{Tag: 16, Data: []byte("wider")}); err != nil {
		t.Fatal(err)
	}
	want[1].Data = []byte("wider")
	got, gotAux, ok = loadTrace(t, st, key, prog, emu.Config{})
	if !ok {
		t.Fatal("trace not served after re-attach")
	}
	requireSame(t, tr, got, want, gotAux)

	// The program section survived every attach: the file still decodes
	// with no program in hand, to the recorded one.
	fromFile, _, ok := loadTrace(t, st, key, nil, emu.Config{})
	if !ok {
		t.Fatal("trace not served with its program read from the file")
	}
	if !reflect.DeepEqual(fromFile.Program(), prog) {
		t.Fatal("the program read from the file differs from the recorded one")
	}

	// Attaching to a missing file degrades to a plain save with one section.
	key2 := traceKey("prog-e2", 0)
	if err := st.AttachAux(key2, tr, emu.AuxSection{Tag: 8, Data: []byte("solo")}); err != nil {
		t.Fatal(err)
	}
	got, gotAux, ok = loadTrace(t, st, key2, prog, emu.Config{})
	if !ok {
		t.Fatal("attach-to-missing-file trace not served")
	}
	requireSame(t, tr, got, []emu.AuxSection{{Tag: 8, Data: []byte("solo")}}, gotAux)
}

// TestSaveTraceAllocs holds SaveTrace to streaming its file: writing li's
// trace allocates less than half the file it writes, chiefly the program
// section's image and one staging buffer. Building the file in memory
// first allocated more than the whole file.
func TestSaveTraceAllocs(t *testing.T) {
	prof, ok := workload.ProfileByName("li", 0.05)
	if !ok {
		t.Fatal("no li profile")
	}
	src, err := workload.Source(prof)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(src, "li", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := traceKey("li", 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = st.SaveTrace(key, tr, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, size := int64(after.TotalAlloc-before.TotalAlloc), fileSize(t, st, key)
	t.Logf("SaveTrace allocated %d B to write a %d B file", alloc, size)
	if 2*alloc >= size {
		t.Errorf("SaveTrace allocated %d B to write a %d B file, want less than half", alloc, size)
	}
}

// TestStoreRejectsMismatchedContent covers the two "right checksum, wrong
// artifact" cases: a file decoded against a different program, and a file
// whose emulation budget does not match the key's. Both quarantine.
func TestStoreRejectsMismatchedContent(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4244)
	other, _ := storeTrace(t, 4245)

	key := traceKey("prog-c", 0)
	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loadTrace(t, st, key, other, emu.Config{}); ok {
		t.Fatal("trace served against the wrong program")
	}
	if cc := st.counters(); cc.Corruptions != 1 {
		t.Fatalf("counters = %+v, want 1 corruption", cc)
	}

	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loadTrace(t, st, key, prog, emu.Config{MaxOps: 12345}); ok {
		t.Fatal("trace served under the wrong emulation budget")
	}
	if cc := st.counters(); cc.Corruptions != 2 {
		t.Fatalf("counters = %+v, want 2 corruptions", cc)
	}
}

// TestServerStoreWarmStart is the end-to-end restart contract: a second
// server pointed at the first one's store directory answers the same sweep
// identically without compiling the program or recording the trace — one
// store hit supplies both, the trace mmapped — and serves the predecoded op
// table out of the file's aux section.
func TestServerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	seed := int64(4247)
	req := func(id string) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			ID:      id,
			Program: ProgramSpec{Seed: &seed, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048, 8192}},
		}
	}

	cfgA := quietConfig()
	stA, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgA.Store = stA
	sA, tsA := testServer(t, cfgA)
	status, cold := post(t, tsA, req("cold"))
	if status != 200 {
		t.Fatalf("cold run: status %d: %s", status, cold.Error)
	}
	if cold.ArtifactCache == nil || cold.ArtifactCache.Store {
		t.Fatalf("cold run claims a store-served trace: %+v", cold.ArtifactCache)
	}
	if n := sA.metrics.traceRecords.Load(); n != 1 {
		t.Fatalf("cold run recorded %d traces, want 1", n)
	}
	if n := sA.metrics.stages[stageCompile].count.Load(); n != 1 {
		t.Fatalf("cold run compiled %d programs, want 1", n)
	}
	if cc := stA.counters(); cc.Writes < 2 { // trace write-through + aux attach
		t.Fatalf("store counters after cold run = %+v, want >= 2 writes", cc)
	}

	cfgB := quietConfig()
	stB, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgB.Store = stB
	sB, tsB := testServer(t, cfgB)
	status, warm := post(t, tsB, req("warm"))
	if status != 200 {
		t.Fatalf("warm run: status %d: %s", status, warm.Error)
	}
	if warm.ArtifactCache == nil || !warm.ArtifactCache.Store || !warm.ArtifactCache.Mmap {
		t.Fatalf("warm run not served from the mmapped store: %+v", warm.ArtifactCache)
	}
	if n := sB.metrics.traceRecords.Load(); n != 0 {
		t.Fatalf("warm run recorded %d traces, want 0", n)
	}
	if n := sB.metrics.stages[stageCompile].count.Load(); n != 0 {
		t.Fatalf("warm run compiled %d programs, want 0: the program comes from the store file", n)
	}
	cc := stB.counters()
	if cc.Hits != 1 || cc.Misses != 0 || cc.Corruptions != 0 || cc.MmapMaps < 1 {
		t.Fatalf("store counters after warm run = %+v, want 1 hit / 0 misses / 0 corruptions / >= 1 map", cc)
	}
	// The aux predecode satisfied the warm server's flatten, so it wrote
	// nothing back.
	if cc.Writes != 0 {
		t.Fatalf("warm run wrote %d store files, want 0 (aux predecode reused)", cc.Writes)
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatalf("warm results diverge from cold:\nwarm: %+v\ncold: %+v", warm.Results, cold.Results)
	}
}

// TestServerStoreBadProgramSection seeds the store file of a request with a
// sound trace but a program section that is missing, cut short, or another
// program's image. A fresh server must quarantine the file (one corruption),
// compile the program, record the trace again and write it through, and
// answer as the reference path does; a server started after it must then
// read the program from the rewritten file without compiling.
func TestServerStoreBadProgramSection(t *testing.T) {
	seed, otherSeed := int64(4249), int64(4250)
	req := func(seed *int64) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: seed, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
		}
	}
	build := func(req *SimRequest) (*isa.Program, emu.Config) {
		plan, err := BuildConfig(req)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := buildProgram(plan)
		if err != nil {
			t.Fatal(err)
		}
		return prog, plan.EmuCfg
	}
	prog, emuCfg := build(req(&seed))
	other, _ := build(req(&otherSeed))
	tr, err := emu.Record(prog, emuCfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := TraceKeyFor(req(&seed))
	if err != nil {
		t.Fatal(err)
	}
	image := programSection(t, prog)
	want := referenceResults(t, req(&seed))

	for _, tc := range []struct {
		name string
		aux  []emu.AuxSection
	}{
		{"missing", nil},
		{"cut-short", []emu.AuxSection{{Tag: emu.ProgramTag, Data: image.Data[:len(image.Data)/2]}}},
		{"other-program", []emu.AuxSection{programSection(t, other)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			serve := func() (*Server, *Store, *SimResponse) {
				st, err := NewStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				cfg := quietConfig()
				cfg.Store = st
				s, ts := testServer(t, cfg)
				status, resp := post(t, ts, req(&seed))
				if status != http.StatusOK {
					t.Fatalf("status %d: %s", status, resp.Error)
				}
				requireResults(t, tc.name, resp.Results, want)
				return s, st, resp
			}
			st, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.FilePath(key), tr.EncodeBytes(tc.aux), 0o644); err != nil {
				t.Fatal(err)
			}

			s, st, resp := serve()
			if cc := st.counters(); cc.Corruptions != 1 || cc.Hits != 0 || cc.Misses != 1 {
				t.Fatalf("store counters = %+v, want 1 corruption / 0 hits / 1 miss", cc)
			}
			if _, err := os.Stat(st.FilePath(key) + ".corrupt"); err != nil {
				t.Fatalf("file not quarantined: %v", err)
			}
			if n := s.metrics.stages[stageCompile].count.Load(); n != 1 {
				t.Fatalf("compiled %d programs, want 1", n)
			}
			if n := s.metrics.traceRecords.Load(); n != 1 {
				t.Fatalf("recorded %d traces, want 1", n)
			}
			if resp.ArtifactCache.Store {
				t.Fatalf("answered from the quarantined file: %+v", resp.ArtifactCache)
			}

			s, st, resp = serve()
			if cc := st.counters(); cc.Corruptions != 0 || cc.Hits != 1 {
				t.Fatalf("store counters after the rewrite = %+v, want 0 corruptions / 1 hit", cc)
			}
			if n := s.metrics.stages[stageCompile].count.Load(); n != 0 {
				t.Fatalf("compiled %d programs over the rewritten file, want 0", n)
			}
			if !resp.ArtifactCache.Store {
				t.Fatalf("not answered from the rewritten file: %+v", resp.ArtifactCache)
			}
		})
	}
}

// TestCodegenStamp requires codegenStamp to be the SHA-256 of the program
// image pins. A change to the compiler or a shaping pass must update those
// pins (TestProgramImages), so it changes every trace key too, and the
// programs stored under the old keys are never served.
func TestCodegenStamp(t *testing.T) {
	pins, err := os.ReadFile(filepath.Join("..", "..", "testdata", "program_images.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(pins)); got != codegenStamp {
		t.Fatalf("testdata/program_images.txt hashes to %s, but codegenStamp is %s: set it to the new hash", got, codegenStamp)
	}
}

// TestStoreConcurrentWriters races writers (of identical content) and readers
// on one key: atomic temp+rename means a reader sees a complete file or
// nothing, never a prefix, and the surviving file validates.
func TestStoreConcurrentWriters(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4246)
	key := traceKey("prog-d", 0)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := st.SaveTrace(key, tr, nil); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if got, gotAux, ok := loadTrace(t, st, key, prog, emu.Config{}); ok {
					requireSame(t, tr, got, nil, gotAux)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if cc := st.counters(); cc.Corruptions != 0 {
		t.Fatalf("counters = %+v, want no corruptions from racing writers", cc)
	}
	got, gotAux, ok := loadTrace(t, st, key, prog, emu.Config{})
	if !ok {
		t.Fatal("surviving file not served")
	}
	requireSame(t, tr, got, nil, gotAux)
	// No temp-file litter once the dust settles.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".bstr-tmp-") {
			t.Fatalf("leftover temp file %s", filepath.Join(st.Dir(), e.Name()))
		}
	}
}
