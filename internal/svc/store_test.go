package svc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
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

// requireSame asserts the loaded trace is the recorded one, field for field:
// same event stream, same emulator result, and a byte-identical re-encode.
func requireSame(t *testing.T, want, got *emu.Trace, wantAux, gotAux []emu.AuxSection) {
	t.Helper()
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
// identically without recording a single trace — the store, not the
// emulator, supplies the artifact, mmapped — and serves the predecoded op
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
	cc := stB.counters()
	if cc.Hits != 1 || cc.Corruptions != 0 || cc.MmapMaps < 1 {
		t.Fatalf("store counters after warm run = %+v, want 1 hit / 0 corruptions / >= 1 map", cc)
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
