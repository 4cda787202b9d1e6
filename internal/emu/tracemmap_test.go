package emu_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// writeTraceFile writes blob as a trace file and returns its path.
func writeTraceFile(t *testing.T, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bstr")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV3TargetedCorruption aims at the v3-specific failure modes the
// byte-sweep in TestTraceCodecDetectsCorruption covers only statistically:
// a body truncated mid-column, a flipped per-column checksum byte, a
// flipped byte inside the zero padding between columns, and a body offset
// that disagrees with the canonical page alignment.
func TestV3TargetedCorruption(t *testing.T) {
	prog := codecProgram(t, 9025, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob := tr.EncodeBytes(nil)
	tailOff := binary.LittleEndian.Uint64(blob[48:56])
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated-mid-body", func(b []byte) []byte { return b[:4096+(int(tailOff)-4096)/2] }},
		{"truncated-at-tail", func(b []byte) []byte { return b[:tailOff] }},
		{"flipped-column-crc", func(b []byte) []byte {
			// The five column CRCs sit immediately before the 4-byte tail CRC.
			b[len(b)-4-20] ^= 0x01
			return b
		}},
		{"flipped-padding", func(b []byte) []byte {
			b[2048] ^= 0x01 // inside the header→body gap, zero by construction
			return b
		}},
		{"unaligned-body-offset", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[40:48], 512)
			return b
		}},
	} {
		mutant := tc.mut(append([]byte(nil), blob...))
		if _, _, err := emu.DecodeTrace(mutant, prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("%s: err = %v, want ErrBadTrace", tc.name, err)
		}
	}
}

// TestOpenTraceFile covers the mapping happy path: the mapped trace is
// zero-copy (borrowed) on platforms with mmap, replays the recorded stream
// exactly, and reports the file's size.
func TestOpenTraceFile(t *testing.T) {
	prog := codecProgram(t, 9026, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	aux := []emu.AuxSection{{Tag: 16, Data: []byte("tables")}}
	blob := tr.EncodeBytes(aux)
	path := writeTraceFile(t, blob)

	m, err := emu.OpenTraceFile(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.SizeBytes() != int64(len(blob)) {
		t.Fatalf("SizeBytes = %d, want %d", m.SizeBytes(), len(blob))
	}
	if !reflect.DeepEqual(m.Aux(), aux) {
		t.Fatalf("aux = %+v, want %+v", m.Aux(), aux)
	}
	if m.ZeroCopy() != m.Trace().Borrowed() {
		t.Fatalf("ZeroCopy %v disagrees with Trace.Borrowed %v", m.ZeroCopy(), m.Trace().Borrowed())
	}
	if !reflect.DeepEqual(replayEvents(t, m.Trace()), replayEvents(t, tr)) {
		t.Fatal("mapped trace replays a different event stream")
	}

	// Corrupt and short files fail with ErrBadTrace (the store's quarantine
	// trigger), and a missing file with the underlying not-exist error.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x20
	if _, err := emu.OpenTraceFile(writeTraceFile(t, bad), prog); !errors.Is(err, emu.ErrBadTrace) {
		t.Fatalf("corrupt file: err = %v, want ErrBadTrace", err)
	}
	if _, err := emu.OpenTraceFile(writeTraceFile(t, blob[:5]), prog); !errors.Is(err, emu.ErrBadTrace) {
		t.Fatalf("short file: err = %v, want ErrBadTrace", err)
	}
	if _, err := emu.OpenTraceFile(filepath.Join(t.TempDir(), "gone.bstr"), prog); err == nil || errors.Is(err, emu.ErrBadTrace) {
		t.Fatalf("missing file: err = %v, want a non-ErrBadTrace error", err)
	}
}

// TestTraceMappingRefcountOrdering pins the unmap-ordering invariant: the
// mapping stays readable while any reference is held — even after the
// original owner released — and only the last release tears it down, after
// which Acquire must refuse to resurrect it. Replays run concurrently with
// the releases under -race to catch an unmap racing a reader.
func TestTraceMappingRefcountOrdering(t *testing.T) {
	prog := codecProgram(t, 9027, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeTraceFile(t, tr.EncodeBytes(nil))
	m, err := emu.OpenTraceFile(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	m.OnRelease(func() { close(released) })

	const replayers = 4
	if !m.Acquire() {
		t.Fatal("fresh mapping refused an Acquire")
	}
	var wg sync.WaitGroup
	for i := 0; i < replayers; i++ {
		if i > 0 && !m.Acquire() {
			t.Fatal("live mapping refused an Acquire")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer m.Release()
			n := 0
			if err := m.Trace().Replay(func(*emu.BlockEvent) error { n++; return nil }); err != nil {
				t.Error(err)
			}
			if n != tr.NumEvents() {
				t.Errorf("replayed %d events, want %d", n, tr.NumEvents())
			}
		}()
	}
	// The owner drops out while replays are in flight: their references must
	// keep the pages mapped until the last one drains.
	m.Release()
	wg.Wait()
	select {
	case <-released:
	default:
		t.Fatal("mapping not released after the last reference drained")
	}
	if m.Acquire() {
		t.Fatal("Acquire succeeded on a fully released mapping")
	}
}
