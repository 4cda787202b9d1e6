package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/svc"
	"bsisa/internal/workload"
)

// imagePins holds one line per Table-2 benchmark × registered backend:
// the benchmark, the backend name, the SHA-256 of the encoded program image
// and the shaping pass's counters ("-" for backends without one). The file
// is never rewritten by a test; a deliberate change to the compiler or a
// shaping pass replaces the affected lines by hand with the ones the failure
// message prints, and explains why in EXPERIMENTS.md.
const imagePins = "testdata/program_images.txt"

// imageLine compiles one benchmark for one backend exactly as the service
// and the harness do (default options, default shaping parameters) and
// renders its pin line. It also requires the image, decoded and laid out,
// to be the program field for field: that is how a restarted bsimd gets the
// program out of a trace store file.
func imageLine(src, name string, be *backend.Backend) (string, error) {
	prog, err := compile.Compile(src, name, compile.DefaultOptions(be.Kind()))
	if err != nil {
		return "", err
	}
	st, err := be.Shape(prog, core.Params{})
	if err != nil {
		return "", err
	}
	img, err := isa.Encode(prog)
	if err != nil {
		return "", err
	}
	dec, err := isa.Decode(img)
	if err != nil {
		return "", err
	}
	dec.Layout()
	if !reflect.DeepEqual(dec, prog) {
		return "", fmt.Errorf("the image, decoded and laid out, differs from the program")
	}
	stats := "-"
	if st != nil {
		stats = fmt.Sprintf("uncond=%d forks=%d asym=%d created=%d removed=%d ops_after=%d",
			st.UncondMerges, st.Forks, st.AsymForks, st.BlocksCreated, st.BlocksRemoved, st.OpsAfter)
	}
	return fmt.Sprintf("%s %s %x %s", name, be.Name(), sha256.Sum256(img), stats), nil
}

// TestProgramImages is the byte-level guard for the compiler back end and
// the shaping passes: every benchmark's program image under every backend
// must hash to its pinned value, and the enlarger's counters must match.
// Static code does not depend on the workload scale, so this runs in -short
// mode at the reference scale.
func TestProgramImages(t *testing.T) {
	want := readPins(t, imagePins)
	for _, prof := range workload.Profiles(1.0) {
		src, err := workload.Source(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range backend.All() {
			got, err := imageLine(src, prof.Name, be)
			if err != nil {
				t.Fatalf("%s/%s: %v", prof.Name, be.Name(), err)
			}
			if w := want[prof.Name+" "+be.Name()]; got != w {
				t.Errorf("%s/%s image changed:\n got  %s\n want %s", prof.Name, be.Name(), got, w)
			}
		}
	}
}

// readPins reads a pin file into a map from "benchmark backend" to its
// line, and requires one line per Table-2 benchmark × registered backend.
func readPins(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[fields[0]+" "+fields[1]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n := len(workload.Profiles(1.0)) * len(backend.All()); len(want) != n {
		t.Fatalf("%s pins %d lines, want %d (benchmarks × backends)", path, len(want), n)
	}
	return want
}

// tracePins holds one line per Table-2 benchmark × registered backend at
// traceImageScale: the benchmark, the backend name, the recorded trace's
// event count and Footprint, and the SHA-256 of its trace file without aux
// sections ("bare") and with the program section ("stored"), which is the
// file Store.SaveTrace writes. Like imagePins it is never rewritten by a
// test: the file format, and so these bytes, change only by hand.
const tracePins = "testdata/trace_images.txt"

// traceImageScale is small enough that the 32 recordings take about a
// second, and large enough that every column spans several recording chunks.
const traceImageScale = 0.05

// TestTraceImages is the byte-level guard for recording and the trace
// encoder: every benchmark's trace under every backend must hash to its
// pinned values, and Trace.Encode and Store.SaveTrace must write exactly
// the bytes EncodeBytes returns.
func TestTraceImages(t *testing.T) {
	want := readPins(t, tracePins)
	st, err := svc.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range workload.Profiles(traceImageScale) {
		src, err := workload.Source(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range backend.All() {
			name := prof.Name + "/" + be.Name()
			prog, err := compile.Compile(src, prof.Name, compile.DefaultOptions(be.Kind()))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := be.Shape(prog, core.Params{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr, err := emu.Record(prog, emu.Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sec, err := emu.ProgramSection(prog)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bare, stored := tr.EncodeBytes(nil), tr.EncodeBytes([]emu.AuxSection{sec})
			got := fmt.Sprintf("%s %s events=%d footprint=%d bare=%x stored=%x",
				prof.Name, be.Name(), tr.NumEvents(), tr.Footprint(), sha256.Sum256(bare), sha256.Sum256(stored))
			if w := want[prof.Name+" "+be.Name()]; got != w {
				t.Errorf("%s trace image changed:\n got  %s\n want %s", name, got, w)
			}

			for _, c := range []struct {
				aux  []emu.AuxSection
				want []byte
			}{{nil, bare}, {[]emu.AuxSection{sec}, stored}} {
				var buf bytes.Buffer
				n, err := tr.Encode(&buf, c.aux)
				if err != nil || n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), c.want) {
					t.Errorf("%s: Encode with %d aux sections wrote %d bytes (reported %d, err %v) that differ from EncodeBytes's %d",
						name, len(c.aux), buf.Len(), n, err, len(c.want))
				}
			}
			if err := st.SaveTrace(name, tr, nil); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(st.FilePath(name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, stored) {
				t.Errorf("%s: SaveTrace wrote a %d-byte file that differs from EncodeBytes's %d bytes", name, len(file), len(stored))
			}
		}
	}
}
