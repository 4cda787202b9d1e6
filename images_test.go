package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
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
func imageLine(src, name string, be backend.Backend) (string, error) {
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
	f, err := os.Open(imagePins)
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
			t.Fatalf("%s: malformed line %q", imagePins, line)
		}
		want[fields[0]+" "+fields[1]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	profiles := workload.Profiles(1.0)
	if n := len(profiles) * len(backend.All()); len(want) != n {
		t.Fatalf("%s pins %d images, want %d (benchmarks × backends)", imagePins, len(want), n)
	}
	for _, prof := range profiles {
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
