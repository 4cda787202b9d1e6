package emu_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// codecProgram compiles one generated program, enlarged when block-structured,
// laid out either way (the trace references block addresses via the program).
func codecProgram(t *testing.T, seed int64, kind isa.Kind) *isa.Program {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "codec", compile.DefaultOptions(kind))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if kind == isa.BlockStructured {
		if _, err := core.Enlarge(prog, core.Params{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	prog.Layout()
	return prog
}

// replayEvents collects a trace's full replayed event stream as deep copies.
func replayEvents(t *testing.T, tr *emu.Trace) []recordedEvent {
	t.Helper()
	var evs []recordedEvent
	if err := tr.Replay(func(ev *emu.BlockEvent) error {
		evs = append(evs, copyEvent(ev))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return evs
}

// TestTraceCodecRoundTrip is the format's property test: over generated
// programs for both ISAs, Decode(Encode(t)) replays field-for-field identical
// to t, carries the same functional result and budget, re-encodes
// byte-identically, and round-trips the optional aux sections.
func TestTraceCodecRoundTrip(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(9100); seed < 9100+int64(seeds); seed++ {
		for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
			prog := codecProgram(t, seed, kind)
			cfg := emu.Config{MaxOps: 40_000_000}
			tr, err := emu.Record(prog, cfg)
			if err != nil {
				t.Fatalf("seed %d: record: %v", seed, err)
			}

			aux := []emu.AuxSection{{Tag: 8, Data: []byte{0xde, 0xad, byte(seed)}}}
			multi := []emu.AuxSection{
				{Tag: 8, Data: []byte{0xde, 0xad, byte(seed)}},
				{Tag: 16, Data: []byte{0xbe, 0xef}},
			}
			for _, tc := range []struct {
				name string
				aux  []emu.AuxSection
			}{{"no-aux", nil}, {"aux", aux}, {"multi-aux", multi}} {
				blob := tr.EncodeBytes(tc.aux)
				got, gotAux, err := emu.DecodeTrace(blob, prog)
				if err != nil {
					t.Fatalf("seed %d %s: decode: %v", seed, tc.name, err)
				}
				if !reflect.DeepEqual(gotAux, tc.aux) {
					t.Fatalf("seed %d %s: aux = %+v, want %+v", seed, tc.name, gotAux, tc.aux)
				}
				if got.NumEvents() != tr.NumEvents() {
					t.Fatalf("seed %d %s: %d events, want %d", seed, tc.name, got.NumEvents(), tr.NumEvents())
				}
				if got.EmuConfig() != tr.EmuConfig() {
					t.Fatalf("seed %d %s: config %+v, want %+v", seed, tc.name, got.EmuConfig(), tr.EmuConfig())
				}
				if !reflect.DeepEqual(got.EmuResult(), tr.EmuResult()) {
					t.Fatalf("seed %d %s: functional result diverges:\ngot  %+v\nwant %+v",
						seed, tc.name, got.EmuResult(), tr.EmuResult())
				}
				want, have := replayEvents(t, tr), replayEvents(t, got)
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("seed %d %s: decoded trace replays a different event stream", seed, tc.name)
				}
				if again := got.EncodeBytes(tc.aux); !bytes.Equal(again, blob) {
					t.Fatalf("seed %d %s: re-encoding the decoded trace is not byte-identical", seed, tc.name)
				}
			}
		}
	}
}

// TestTraceCodecDetectsCorruption flips every byte of one encoding in turn
// (and truncates at every prefix length, sampled) and requires DecodeTrace to
// reject each mutant with ErrBadTrace — never panic, never succeed.
func TestTraceCodecDetectsCorruption(t *testing.T) {
	prog := codecProgram(t, 9021, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{MaxOps: 40_000_000})
	if err != nil {
		t.Fatal(err)
	}
	blob := tr.EncodeBytes([]emu.AuxSection{{Tag: 16, Data: []byte("predecode-tables-go-here")}})
	if _, _, err := emu.DecodeTrace(blob, prog); err != nil {
		t.Fatalf("pristine blob must decode: %v", err)
	}

	stride := 1
	if len(blob) > 4096 {
		stride = len(blob) / 4096
	}
	for i := 0; i < len(blob); i += stride {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0x40
		if _, _, err := emu.DecodeTrace(mutant, prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("flipping byte %d of %d: err = %v, want ErrBadTrace", i, len(blob), err)
		}
	}
	for _, n := range []int{0, 1, 7, 8, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
		if _, _, err := emu.DecodeTrace(blob[:n], prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("truncating to %d of %d bytes: err = %v, want ErrBadTrace", n, len(blob), err)
		}
	}
}

// TestTraceCodecRejectsVersionAndProgramMismatch covers the header checks:
// every version byte but 3 — the varint layouts older releases wrote (1, 2)
// as well as unknown ones — fails, and a trace decoded against a different
// program (here: the block-structured compile of the same source) is
// rejected rather than replayed wrong.
func TestTraceCodecRejectsVersionAndProgramMismatch(t *testing.T) {
	conv := codecProgram(t, 9022, isa.Conventional)
	bsa := codecProgram(t, 9022, isa.BlockStructured)
	tr, err := emu.Record(conv, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob := tr.EncodeBytes(nil)

	for _, v := range []byte{0, 1, 2, 4, 99} {
		mutant := append([]byte(nil), blob...)
		mutant[4] = v // version byte
		_, _, err := emu.DecodeTrace(mutant, conv)
		if !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("version %d: err = %v, want ErrBadTrace", v, err)
		}
		if want := fmt.Sprintf("format version %d,", v); !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: err = %v, want it to name the version", v, err)
		}
	}
	if _, _, err := emu.DecodeTrace(blob, bsa); !errors.Is(err, emu.ErrBadTrace) {
		t.Fatalf("wrong program: err = %v, want ErrBadTrace", err)
	}
}

// TestTraceCodecRejectsNonCanonicalAux pins the canonical-form rule that makes
// per-width aux sections unambiguous: tags must strictly increase, so a
// descending or duplicated tag — the shape the old "one untagged section"
// format could silently clobber into — is rejected at decode, never served.
func TestTraceCodecRejectsNonCanonicalAux(t *testing.T) {
	prog := codecProgram(t, 9023, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		aux  []emu.AuxSection
	}{
		{"descending-tags", []emu.AuxSection{{Tag: 16, Data: []byte("b")}, {Tag: 8, Data: []byte("a")}}},
		{"duplicate-tags", []emu.AuxSection{{Tag: 16, Data: []byte("a")}, {Tag: 16, Data: []byte("b")}}},
	} {
		if _, _, err := emu.DecodeTrace(tr.EncodeBytes(tc.aux), prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("%s: err = %v, want ErrBadTrace", tc.name, err)
		}
	}
}

// TestTraceCodecReadsProgramSection decodes files with no program in hand.
// A file carrying its program's ProgramSection must decode to a trace whose
// program is the recorded one, field for field, and which replays the
// recorded stream; mapping the file must do the same. A file with no
// section, a section that is not a program, one whose program fails
// Validate, and one holding another program must each fail with
// ErrBadTrace.
func TestTraceCodecReadsProgramSection(t *testing.T) {
	section := func(p *isa.Program) emu.AuxSection {
		sec, err := emu.ProgramSection(p)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
		prog := codecProgram(t, 9027, kind)
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		aux := []emu.AuxSection{section(prog), {Tag: 8, Data: []byte("predecode")}}
		blob := tr.EncodeBytes(aux)
		got, gotAux, err := emu.DecodeTrace(blob, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(got.Program(), prog) {
			t.Fatalf("%s: the program decoded from the file differs from the recorded one", kind)
		}
		if !reflect.DeepEqual(replayEvents(t, got), replayEvents(t, tr)) {
			t.Fatalf("%s: the trace decoded with its own program replays differently", kind)
		}
		if !reflect.DeepEqual(gotAux, aux) {
			t.Fatalf("%s: aux sections %+v, want %+v", kind, gotAux, aux)
		}
		m, err := emu.OpenTraceFile(writeTraceFile(t, blob), nil)
		if err != nil {
			t.Fatalf("%s: mapping: %v", kind, err)
		}
		if !reflect.DeepEqual(m.Trace().Program(), prog) || !reflect.DeepEqual(replayEvents(t, m.Trace()), replayEvents(t, tr)) {
			t.Fatalf("%s: the mapped trace differs from the recorded one", kind)
		}
		m.Release()
	}

	prog := codecProgram(t, 9028, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	invalid := codecProgram(t, 9028, isa.Conventional)
	invalid.Funcs[0].Entry = isa.BlockID(len(invalid.Blocks)) // Validate: entry block missing
	for _, tc := range []struct {
		name    string
		aux     []emu.AuxSection
		wantIsa bool // the failure also wraps isa.ErrBadContainer
	}{
		{"missing", []emu.AuxSection{{Tag: 8, Data: []byte("predecode")}}, false},
		{"not-a-program", []emu.AuxSection{{Tag: emu.ProgramTag, Data: []byte("BSA1 but no more")}}, true},
		{"invalid-program", []emu.AuxSection{section(invalid)}, false},
		{"other-program", []emu.AuxSection{section(codecProgram(t, 9029, isa.Conventional))}, false},
	} {
		_, _, err := emu.DecodeTrace(tr.EncodeBytes(tc.aux), nil)
		if !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("%s: err = %v, want ErrBadTrace", tc.name, err)
		}
		if tc.wantIsa && !errors.Is(err, isa.ErrBadContainer) {
			t.Fatalf("%s: err = %v, want it to wrap isa.ErrBadContainer too", tc.name, err)
		}
	}
	if _, _, err := emu.DecodeTrace(tr.EncodeBytes(nil), nil); !errors.Is(err, emu.ErrBadTrace) {
		t.Fatalf("no aux at all: err = %v, want ErrBadTrace", err)
	}
}
