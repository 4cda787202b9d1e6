package harness

import (
	"bytes"
	"testing"

	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// TestPreparationOrderIndependence checks that parallel benchmark
// preparation yields byte-identical executables to serial preparation:
// compilation is deterministic and per-benchmark, so the order (and
// concurrency) of preparation must not leak into results.
func TestPreparationOrderIndependence(t *testing.T) {
	serial, err := New(Options{Scale: 0.02, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Scale: 0.02, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Benches) != len(parallel.Benches) {
		t.Fatalf("serial prepared %d benchmarks, parallel %d", len(serial.Benches), len(parallel.Benches))
	}
	for i, sb := range serial.Benches {
		pb := parallel.Benches[i]
		if sb.Profile.Name != pb.Profile.Name {
			t.Fatalf("bench %d: serial %s, parallel %s (order leaked)", i, sb.Profile.Name, pb.Profile.Name)
		}
		for _, side := range []struct {
			tag      string
			ser, par *isa.Program
		}{{"conv", sb.Conv, pb.Conv}, {"bsa", sb.BSA, pb.BSA}} {
			se, err := isa.Encode(side.ser)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := isa.Encode(side.par)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(se, pe) {
				t.Errorf("bench %s (%s): parallel preparation produced a different executable",
					sb.Profile.Name, side.tag)
			}
		}
	}
}

// TestHarnessReplayMatchesDirect checks the harness's trace-replay path
// end to end: Run on a prepared benchmark (which replays the shared trace)
// must produce the same result as a direct execution-driven simulation.
func TestHarnessReplayMatchesDirect(t *testing.T) {
	h := getHarness(t)
	b := h.Benches[0]
	cfg := baseConfig(ICacheSizes[0], false)
	got, err := h.Run(b.Profile.Name+"/replay-test", b.Conv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := uarch.RunProgram(b.Conv, cfg, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("harness replay result differs from direct simulation\nreplay: %+v\ndirect: %+v", *got, *want)
	}
	// Fresh programs (not prepared by the harness) take the direct path and
	// must agree too.
	prog, _, err := b.CompileBSA(core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	gotFresh, err := h.Run(b.Profile.Name+"/replay-test-fresh", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFresh, _, err := uarch.RunProgram(prog, cfg, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if *gotFresh != *wantFresh {
		t.Errorf("direct-path result differs: %+v vs %+v", *gotFresh, *wantFresh)
	}
}

// TestWorkerCountDeterminism pins Options.Workers as a pure throughput knob:
// the rendered figures — including the float mean rows, which are reduced in
// benchmark order rather than goroutine completion order — must be
// byte-identical at every worker count.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-harness determinism comparison skipped in -short mode")
	}
	render := func(workers int) []string {
		t.Helper()
		h, err := New(Options{Scale: 0.02, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, gen := range []func() (*stats.Table, error){h.Figure3, h.Figure6, h.Figure7, h.AblateHistory} {
			tbl, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tbl.Render())
		}
		return out
	}
	want := render(1)
	for _, workers := range []int{2, 5} {
		got := render(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: table %d differs from serial run\nserial:\n%s\nworkers=%d:\n%s",
					workers, i, want[i], workers, got[i])
			}
		}
	}
}
