package svc

import (
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"bsisa/internal/emu"
)

// TestStoreMappedHitAndRelease covers the read path: a stored trace is
// served as a zero-copy mapping, resident bytes track the mapping's
// lifetime, and the release ordering (unmap only after the last reference)
// holds.
func TestStoreMappedHitAndRelease(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 5150)
	key := traceKey("prog-m", 0)
	if _, ok := st.LoadTraceMapped(key, prog, emu.Config{}); ok {
		t.Fatal("cold store claims a mapped hit")
	}
	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}
	mt, ok := st.LoadTraceMapped(key, prog, emu.Config{})
	if !ok {
		t.Fatal("stored trace not served")
	}
	if !mt.ZeroCopy() {
		t.Skip("platform mapped the file into the heap; mmap-tier accounting does not apply")
	}
	cc := st.counters()
	if cc.MmapMaps != 1 || cc.ResidentBytes <= 0 {
		t.Fatalf("counters after a mapped hit = %+v", cc)
	}
	if !reflect.DeepEqual(mt.Trace().BlockIDs(), tr.BlockIDs()) {
		t.Fatal("mapped trace's event stream diverges")
	}
	if !mt.Acquire() {
		t.Fatal("live mapping refused an Acquire")
	}
	mt.Release()
	if got := st.counters(); got.MmapUnmaps != 0 || got.ResidentBytes != cc.ResidentBytes {
		t.Fatalf("early release unmapped: %+v", got)
	}
	mt.Release()
	if got := st.counters(); got.MmapUnmaps != 1 || got.ResidentBytes != 0 {
		t.Fatalf("final release did not unmap: %+v", got)
	}
}

// TestServerCloseUnmapsTraces: a closed server drops its trace cache's
// references, so every trace it mapped from the store is unmapped at Close —
// not at process exit — and the store holds no resident bytes.
func TestServerCloseUnmapsTraces(t *testing.T) {
	dir := t.TempDir()
	seed := int64(5151)
	reqs := []*SimRequest{}
	for _, isa := range []string{"conv", "bsa", "bb", "fused"} {
		reqs = append(reqs, &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: isa},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 1024}},
		})
	}
	serve := func(st *Store) *Server {
		cfg := quietConfig()
		cfg.Store = st
		s := NewServer(cfg)
		ts := httptest.NewServer(s.Handler())
		for _, req := range reqs {
			if status, resp := post(t, ts, req); status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req.Program.ISA, status, resp.Error)
			}
		}
		ts.Close()
		return s
	}
	// The first server records and writes the traces through.
	first, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	serve(first).Close()

	// The second serves them mapped from the store.
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := serve(st)
	open := st.counters()
	if open.MmapMaps == 0 {
		t.Skip("platform mapped no trace files; mmap-tier accounting does not apply")
	}
	if open.MmapUnmaps != 0 || open.ResidentBytes <= 0 {
		t.Fatalf("before Close: %+v, want the cache holding every mapping", open)
	}
	s.Close()
	if got := st.counters(); got.MmapUnmaps != got.MmapMaps || got.ResidentBytes != 0 {
		t.Fatalf("after Close: %d maps, %d unmaps, %d resident bytes",
			got.MmapMaps, got.MmapUnmaps, got.ResidentBytes)
	}
}

// TestStoreGCEvictsLRU pins the size cap's two rules: eviction walks files
// in access-time order (coldest first), and a file whose mapping still has
// a replay in flight is never evicted no matter how cold it looks.
func TestStoreGCEvictsLRU(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 5152)

	keys := []string{traceKey("gc-a", 0), traceKey("gc-b", 0), traceKey("gc-c", 0)}
	for _, k := range keys {
		if err := st.SaveTrace(k, tr, nil); err != nil {
			t.Fatal(err)
		}
	}
	blobSize := fileSize(t, st, keys[0])
	// Age the files oldest-first so LRU order is deterministic, then cap the
	// store at two files and trigger a sweep with a fourth write: the coldest
	// file (gc-a) must go, and only as many as needed.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		if err := os.Chtimes(st.FilePath(k), base.Add(time.Duration(i)*time.Minute), base); err != nil {
			t.Fatal(err)
		}
	}
	st.SetMaxBytes(3*blobSize + blobSize/2)
	if err := st.SaveTrace(traceKey("gc-d", 0), tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.FilePath(keys[0])); !os.IsNotExist(err) {
		t.Fatalf("coldest file survived the sweep: %v", err)
	}
	for _, k := range append(keys[1:], traceKey("gc-d", 0)) {
		if _, err := os.Stat(st.FilePath(k)); err != nil {
			t.Fatalf("warm file %s evicted: %v", k, err)
		}
	}
	if cc := st.counters(); cc.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cc.Evictions)
	}

	// Map the now-coldest file and shrink the cap to force a full sweep: the
	// live mapping must survive, everything else may go.
	mt, ok := st.LoadTraceMapped(keys[1], prog, emu.Config{})
	if !ok {
		t.Fatal("gc-b not served")
	}
	if !mt.ZeroCopy() {
		mt.Release()
		t.Skip("platform mapped the file into the heap; liveness protection does not apply")
	}
	if err := os.Chtimes(st.FilePath(keys[1]), base, base); err != nil {
		t.Fatal(err)
	}
	st.SetMaxBytes(1)
	if err := st.SaveTrace(traceKey("gc-e", 0), tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.FilePath(keys[1])); err != nil {
		t.Fatalf("live-mapped file evicted under active use: %v", err)
	}
	if !reflect.DeepEqual(mt.Trace().BlockIDs(), tr.BlockIDs()) {
		t.Fatal("mapped trace corrupted by the sweep")
	}
	mt.Release()
	// With the reference drained the file is fair game on the next sweep.
	if err := st.SaveTrace(traceKey("gc-f", 0), tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.FilePath(keys[1])); !os.IsNotExist(err) {
		t.Fatalf("drained file survived the next sweep: %v", err)
	}
}

// TestStoreGCEvictsQuarantinedFirst: quarantined files count toward the size
// cap and are evicted before any servable file, however cold that file is,
// because nothing ever serves them. Here three files an older release wrote
// (version byte 2) are quarantined and re-recorded, which doubles the
// directory; the sweep must bring it back under the cap by removing exactly
// the three quarantined copies.
func TestStoreGCEvictsQuarantinedFirst(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 5154)
	old := tr.EncodeBytes(nil)
	old[4] = 2

	keys := []string{traceKey("q-a", 0), traceKey("q-b", 0), traceKey("q-c", 0)}
	base := time.Now().Add(-time.Hour)
	for _, k := range keys {
		if err := os.WriteFile(st.FilePath(k), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.LoadTraceMapped(k, prog, emu.Config{}); ok {
			t.Fatal("old-format file served")
		}
		if err := st.SaveTrace(k, tr, nil); err != nil {
			t.Fatal(err)
		}
		// The re-recorded files look colder than their quarantined copies.
		if err := os.Chtimes(st.FilePath(k), base, base); err != nil {
			t.Fatal(err)
		}
	}
	if cc := st.counters(); cc.Corruptions != 3 {
		t.Fatalf("corruptions = %d, want 3", cc.Corruptions)
	}

	// Room for the three servable files and half a quarantined one.
	limit := 3*fileSize(t, st, keys[0]) + int64(len(old))/2
	st.SetMaxBytes(limit)
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, de := range ents {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > limit {
		t.Fatalf("store holds %d bytes under a %d-byte cap", total, limit)
	}
	for _, k := range keys {
		if _, err := os.Stat(st.FilePath(k) + ".corrupt"); !os.IsNotExist(err) {
			t.Fatalf("quarantined copy of %s survived the sweep: %v", k, err)
		}
		if _, err := os.Stat(st.FilePath(k)); err != nil {
			t.Fatalf("servable file %s evicted before a quarantined one: %v", k, err)
		}
	}
	if cc := st.counters(); cc.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", cc.Evictions)
	}
}

// TestStoreGCNeverUnmapsActiveReplay drives concurrent mapped replays
// against a store being written (and so swept) hard enough that every
// unprotected file is evicted continuously. Run under -race, this is the
// eviction-vs-replay ordering proof: replays see consistent streams to the
// end, because eviction only deletes directory entries and the mapping's
// pages survive until its last reference drains.
func TestStoreGCNeverUnmapsActiveReplay(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 5153)
	key := traceKey("gc-race", 0)
	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}
	st.SetMaxBytes(1) // every sweep wants to evict everything

	want := tr.BlockIDs()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: keep triggering sweeps
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = st.SaveTrace(traceKey("gc-chaff", int64(i%4)), tr, nil)
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				mt, ok := st.LoadTraceMapped(key, prog, emu.Config{})
				if !ok {
					// The file can be evicted between replays; re-seed and go on.
					_ = st.SaveTrace(key, tr, nil)
					continue
				}
				if !reflect.DeepEqual(mt.Trace().BlockIDs(), want) {
					t.Error("replay observed a torn trace")
				}
				mt.Release()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
