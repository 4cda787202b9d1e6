// Root-level property tests for the zero-decode mmap replay path: a v3
// trace mapped from disk must be observationally identical to the in-memory
// recording it was encoded from — event-for-event on the replay stream and
// field-for-field on timing results — across every registered ISA backend
// and randomly drawn workloads, configurations, and scales.
package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// traceEvent is a retained copy of one replayed BlockEvent (the delivered
// struct is reused and its MemAddrs alias the trace, so comparisons need
// copies).
type traceEvent struct {
	block isa.BlockID
	next  isa.BlockID
	succ  int
	taken bool
	mem   []uint32
}

func collectEvents(t *testing.T, tr *emu.Trace) []traceEvent {
	t.Helper()
	out := make([]traceEvent, 0, tr.NumEvents())
	err := tr.Replay(func(ev *emu.BlockEvent) error {
		out = append(out, traceEvent{
			block: ev.Block.ID,
			next:  ev.Next,
			succ:  ev.SuccIdx,
			taken: ev.Taken,
			mem:   append([]uint32(nil), ev.MemAddrs...),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMappedV3MatchesRecordedAcrossBackends is the randomized equivalence
// property: for random (backend, workload, scale) draws, record a trace,
// write it to a file and map it back, and require the mapped trace to replay
// the recording's event stream and produce its timing result under a random
// configuration, and to re-encode to the bytes an independent second
// recording of the program encodes to. The seed is fixed so a failure
// reproduces.
func TestMappedV3MatchesRecordedAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	benchNames := []string{"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"}
	dir := t.TempDir()
	for _, be := range backend.All() {
		beName := be.Name()
		for draw := 0; draw < 2; draw++ {
			name := benchNames[rng.Intn(len(benchNames))]
			scale := 0.01 + 0.02*rng.Float64()
			prof, ok := workload.ProfileByName(name, scale)
			if !ok {
				t.Fatalf("no %s profile", name)
			}
			src, err := workload.Source(prof)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compile.Compile(src, name, compile.DefaultOptions(be.Kind()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := be.Shape(prog, core.Params{}); err != nil {
				t.Fatal(err)
			}
			tr, err := emu.Record(prog, emu.Config{})
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, beName+"-"+name+".bstr")
			if err := os.WriteFile(path, tr.EncodeBytes(nil), 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := emu.OpenTraceFile(path, prog)
			if err != nil {
				t.Fatalf("%s/%s: open v3: %v", beName, name, err)
			}
			fresh, err := emu.Record(prog, emu.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.Trace().EncodeBytes(nil), fresh.EncodeBytes(nil)) {
				t.Fatalf("%s/%s: the mapped trace re-encodes to other bytes than an independent fresh recording", beName, name)
			}

			want := collectEvents(t, tr)
			got := collectEvents(t, m.Trace())
			if len(got) != len(want) {
				t.Fatalf("%s/%s: mapped trace has %d events, recorded %d", beName, name, len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if w.block != g.block || w.next != g.next || w.succ != g.succ || w.taken != g.taken ||
					len(w.mem) != len(g.mem) {
					t.Fatalf("%s/%s: event %d diverges: mapped %+v, recorded %+v", beName, name, i, g, w)
				}
				for k := range w.mem {
					if w.mem[k] != g.mem[k] {
						t.Fatalf("%s/%s: event %d mem[%d] = %#x, want %#x", beName, name, i, k, g.mem[k], w.mem[k])
					}
				}
			}

			var cfg uarch.Config
			cfg.ICache.SizeBytes = 4096 << rng.Intn(4)
			cfg.ICache.Ways = 1 << rng.Intn(3)
			rr, err := uarch.ReplayTrace(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := uarch.ReplayTrace(m.Trace(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *rr != *rm {
				t.Fatalf("%s/%s: mapped replay result diverges under %+v\nmapped:   %+v\nrecorded: %+v",
					beName, name, cfg, *rm, *rr)
			}
			if res := m.Trace().EmuResult(); res == nil || tr.EmuResult() == nil ||
				res.Stats != tr.EmuResult().Stats {
				t.Fatalf("%s/%s: mapped trace's functional stats diverge", beName, name)
			}
			m.Release()
		}
	}
}
