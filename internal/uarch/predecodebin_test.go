package uarch

import (
	"errors"
	"reflect"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

func codecProg(t testing.TB, seed int64, kind isa.Kind) *isa.Program {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "predecode", compile.DefaultOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.For(kind).Shape(prog, core.Params{}); err != nil {
		t.Fatal(err)
	}
	prog.Layout()
	return prog
}

// TestPredecodedCodecRoundTrip requires DecodePredecoded(EncodeBytes()) to
// rebuild tables deep-equal to a fresh Predecode, for every backend (fused
// tables included) and a non-default issue width — the equivalence that lets
// a store-loaded predecode substitute for a freshly flattened one.
func TestPredecodedCodecRoundTrip(t *testing.T) {
	for _, be := range backend.All() {
		kind := be.Kind()
		for _, iw := range []int{0, 4} {
			prog := codecProg(t, 8841, kind)
			want := Predecode(prog, iw)
			got, err := DecodePredecoded(want.EncodeBytes(), prog)
			if err != nil {
				t.Fatalf("kind %v iw %d: %v", kind, iw, err)
			}
			if got.issueWidth != want.issueWidth {
				t.Fatalf("kind %v: issue width %d, want %d", kind, got.issueWidth, want.issueWidth)
			}
			if !reflect.DeepEqual(got.lp, want.lp) || !reflect.DeepEqual(got.noMiss, want.noMiss) {
				t.Fatalf("kind %v iw %d: decoded tables diverge from a fresh flatten", kind, iw)
			}
		}
	}
	// A fused table is shorter than the block: the codec must carry the
	// fused op counts, not the architectural ones.
	fused := workloadProgram(t, "li", 0.002, isa.MacroFused)
	pre := Predecode(fused, 0)
	short := false
	for i := range pre.lp {
		short = short || len(pre.lp[i].ops) < int(pre.lp[i].numOps)
	}
	if !short {
		t.Fatal("fused li program fused no pairs")
	}
	if _, err := DecodePredecoded(pre.EncodeBytes(), fused); err != nil {
		t.Fatalf("fused tables: %v", err)
	}
	// Fused and unfused tables of the same code do not interchange: each
	// fails decode against the other's program like any stale layout.
	conv := workloadProgram(t, "li", 0.002, isa.Conventional)
	if _, err := DecodePredecoded(Predecode(conv, 0).EncodeBytes(), fused); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("unfused blob for a fused program: err = %v, want ErrBadPredecode", err)
	}
	if _, err := DecodePredecoded(pre.EncodeBytes(), conv); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("fused blob for an unfused program: err = %v, want ErrBadPredecode", err)
	}
}

// TestPredecodedCodecRejectsMismatch: a blob decoded against a different
// program, a truncated blob, and an unknown version must all fail with
// ErrBadPredecode.
func TestPredecodedCodecRejectsMismatch(t *testing.T) {
	conv := codecProg(t, 8842, isa.Conventional)
	bsa := codecProg(t, 8842, isa.BlockStructured)
	blob := Predecode(conv, 0).EncodeBytes()

	if _, err := DecodePredecoded(blob, bsa); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("wrong program: err = %v, want ErrBadPredecode", err)
	}
	for _, n := range []int{0, 1, 3, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodePredecoded(blob[:n], conv); !errors.Is(err, ErrBadPredecode) {
			t.Fatalf("truncated to %d: err = %v, want ErrBadPredecode", n, err)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 9
	if _, err := DecodePredecoded(bad, conv); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("future version: err = %v, want ErrBadPredecode", err)
	}
	// A load flag the program does not back would read past the committed
	// load stream: flag an extra op as a load.
	forged, err := DecodePredecoded(blob, conv)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for i := range forged.lp {
		for j, op := range forged.lp[i].ops {
			if !flagged && uint8(op>>40)&laneLD == 0 {
				forged.lp[i].ops[j] = op | laneOp(laneLD)<<40
				flagged = true
			}
		}
	}
	if !flagged {
		t.Fatal("no op to flag")
	}
	if _, err := DecodePredecoded(forged.EncodeBytes(), conv); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("extra load flag: err = %v, want ErrBadPredecode", err)
	}
}

// FuzzDecodePredecoded feeds arbitrary blobs to the predecode codec, which
// parses untrusted store files. Decoding must never panic, every failure
// must wrap ErrBadPredecode, and every success must agree with a fresh
// Predecode in block structure, table lengths and load count, with every
// register byte inside the ready table's live prefix. The seeds are valid
// blobs for every backend; which program to decode against is the second
// input.
func FuzzDecodePredecoded(f *testing.F) {
	var progs []*isa.Program
	for i, be := range backend.All() {
		prog := codecProg(f, 8843, be.Kind())
		progs = append(progs, prog)
		for _, iw := range []int{0, 4} {
			f.Add(Predecode(prog, iw).EncodeBytes(), uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		prog := progs[int(which)%len(progs)]
		got, err := DecodePredecoded(data, prog)
		if err != nil {
			if !errors.Is(err, ErrBadPredecode) {
				t.Fatalf("failure does not wrap ErrBadPredecode: %v", err)
			}
			return
		}
		want := Predecode(prog, got.IssueWidth())
		if len(got.lp) != len(want.lp) {
			t.Fatalf("%d blocks, fresh flatten has %d", len(got.lp), len(want.lp))
		}
		for id := range got.lp {
			g, w := &got.lp[id], &want.lp[id]
			if (g.ops == nil) != (w.ops == nil) || g.addr != w.addr || g.size != w.size ||
				len(g.ops) != len(w.ops) || g.numOps != w.numOps || g.fetchCycles != w.fetchCycles {
				t.Fatalf("B%d: decoded %d/%d ops at %d+%d, fresh %d/%d ops at %d+%d",
					id, len(g.ops), g.numOps, g.addr, g.size, len(w.ops), w.numOps, w.addr, w.size)
			}
			loads := 0
			for _, op := range w.ops {
				if uint8(op>>40)&laneLD != 0 {
					loads++
				}
			}
			for _, op := range g.ops {
				if uint8(op>>40)&laneLD != 0 {
					loads--
				}
				for k := 0; k < 3; k++ {
					if r := uint8(op >> (8 * k)); r >= isa.NumRegs {
						t.Fatalf("B%d: read register byte %d out of range", id, r)
					}
				}
				for _, w := range []uint8{uint8(op >> 24), uint8(op >> 32)} {
					if w == uint8(isa.RegZero) || w > laneRegSink {
						t.Fatalf("B%d: write register byte %d out of range", id, w)
					}
				}
			}
			if loads != 0 {
				t.Fatalf("B%d: load flags differ from a fresh flatten by %d", id, -loads)
			}
		}
		if len(got.noMiss) < len(want.noMiss) {
			t.Fatalf("shadow miss table %d bytes, fresh flatten needs %d", len(got.noMiss), len(want.noMiss))
		}
	})
}
