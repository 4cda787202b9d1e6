package compile

import (
	"fmt"
	"testing"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

func countBR(p *isa.Program) int {
	n := 0
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		for i := range b.Ops {
			if b.Ops[i].Opcode == isa.BR || b.Ops[i].Opcode == isa.TRAP {
				n++
			}
		}
	}
	return n
}

func TestIfConvertFlattensDiamond(t *testing.T) {
	src := `
func pick(a, b, c) {
	var r = 0;
	if (c) { r = a + 1; } else { r = b - 1; }
	return r;
}
func main() {
	out(pick(10, 20, 1));
	out(pick(10, 20, 0));
}`
	plain, err := Compile(src, "p", Options{Kind: isa.Conventional, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Compile(src, "c", Options{Kind: isa.Conventional, Optimize: true, IfConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	if countBR(conv) >= countBR(plain) {
		t.Errorf("if-conversion did not remove branches: %d vs %d", countBR(conv), countBR(plain))
	}
	// Semantics preserved.
	r1, err := emu.New(plain, emu.Config{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := emu.New(conv, emu.Config{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Output) != fmt.Sprint(r2.Output) {
		t.Fatalf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
	if fmt.Sprint(r1.Output) != "[11 19]" {
		t.Fatalf("wrong output %v", r1.Output)
	}
}

func TestIfConvertSkipsUnsafeArms(t *testing.T) {
	// Arms with loads, stores, calls or division must not be converted.
	src := `
var a[4];
func g(x) { return x; }
func main() {
	var r = 0;
	var c = 0;
	if (c) { r = a[3]; }          // load
	if (c) { a[0] = 1; }          // store
	if (c) { r = g(5); }          // call
	if (c) { r = 10 / c; }        // division by the (false) condition!
	out(r);
}`
	prog, err := Compile(src, "u", Options{Kind: isa.Conventional, Optimize: true, IfConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.New(prog, emu.Config{}).Run(nil)
	if err != nil {
		t.Fatalf("speculated an unsafe arm: %v", err)
	}
	if len(res.Output) != 1 || res.Output[0] != 0 {
		t.Fatalf("wrong output %v", res.Output)
	}
}

func TestIfConvertTriangles(t *testing.T) {
	src := `
func main() {
	var i; var s = 0;
	for (i = 0; i < 20; i = i + 1) {
		if (i & 1) { s = s + i; }         // triangle (taken arm)
		if (!(i & 2)) { } else { s = s - 1; } // inverted triangle
	}
	out(s);
}`
	plain, _ := Compile(src, "p", Options{Kind: isa.Conventional, Optimize: true})
	conv, err := Compile(src, "c", Options{Kind: isa.Conventional, Optimize: true, IfConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := emu.New(plain, emu.Config{}).Run(nil)
	r2, err := emu.New(conv, emu.Config{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Output) != fmt.Sprint(r2.Output) {
		t.Fatalf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
	if countBR(conv) >= countBR(plain) {
		t.Errorf("triangles not converted: %d vs %d branches", countBR(conv), countBR(plain))
	}
}

// TestIfConvertDifferential fuzzes the pass across random programs and both
// ISAs.
func TestIfConvertDifferential(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(5000); seed < 5000+int64(seeds); seed++ {
		src := testgen.Program(seed)
		var want []int64
		for _, ifc := range []bool{false, true} {
			for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
				prog, err := Compile(src, "ifc", Options{Kind: kind, Optimize: true, IfConvert: ifc})
				if err != nil {
					t.Fatalf("seed %d ifc=%v: %v\n%s", seed, ifc, err, src)
				}
				res, err := emu.New(prog, emu.Config{MaxOps: 80_000_000}).Run(nil)
				if err != nil {
					t.Fatalf("seed %d ifc=%v %s: %v\n%s", seed, ifc, kind, err, src)
				}
				got := append(res.Output, res.ReturnValue)
				if want == nil {
					want = got
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d ifc=%v %s disagrees:\nwant %v\ngot  %v\n%s",
						seed, ifc, kind, want, got, src)
				}
			}
		}
	}
}

func TestIfConvertCountsConversions(t *testing.T) {
	src := `
func main() {
	var a = 1; var b = 2;
	if (a) { b = b + 1; } else { b = b - 1; }
	out(b);
}`
	if n := IfConvert(frontend(t, src, false), 0); n != 1 {
		t.Errorf("converted %d, want 1", n)
	}
}

func TestIfConvertDeterministic(t *testing.T) {
	src := testgen.Program(5100)
	opts := Options{Kind: isa.Conventional, Optimize: true, IfConvert: true}
	a, err := Compile(src, "d", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(src, "d", opts)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := isa.Encode(a)
	db, _ := isa.Encode(b)
	if string(da) != string(db) {
		t.Fatal("if-converted compilation is nondeterministic")
	}
}
