package isa_test

import (
	"bytes"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// FuzzDecodeProgram feeds arbitrary bytes to isa.Decode, the parser bsim and
// bsdis hand .bso files. Decode, and Layout and Validate on whatever it
// accepts, must never panic, and an accepted program must re-encode to bytes
// that decode and re-encode identically. The seeds are generated programs
// compiled and shaped for every registered backend.
func FuzzDecodeProgram(f *testing.F) {
	for _, be := range backend.All() {
		for seed := int64(1); seed <= 2; seed++ {
			prog, err := compile.Compile(testgen.Program(seed), "fuzz", compile.DefaultOptions(be.Kind()))
			if err != nil {
				f.Fatal(err)
			}
			if _, err := be.Shape(prog, core.Params{}); err != nil {
				f.Fatal(err)
			}
			data, err := isa.Encode(prog)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.Decode(data)
		if err != nil {
			return
		}
		p.Layout()
		_ = p.Validate()
		once, err := isa.Encode(p)
		if err != nil {
			t.Fatalf("decoded program does not re-encode: %v", err)
		}
		q, err := isa.Decode(once)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		twice, err := isa.Encode(q)
		if err != nil {
			t.Fatalf("program does not re-encode a second time: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
