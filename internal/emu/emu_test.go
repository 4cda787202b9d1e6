package emu

import (
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/isa"
)

func compileBoth(t *testing.T, src string) (conv, bsa *isa.Program) {
	t.Helper()
	var err error
	conv, err = compile.Compile(src, "t", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatalf("compile conventional: %v", err)
	}
	bsa, err = compile.Compile(src, "t", compile.DefaultOptions(isa.BlockStructured))
	if err != nil {
		t.Fatalf("compile block-structured: %v", err)
	}
	return conv, bsa
}

func run(t *testing.T, p *isa.Program) *Result {
	t.Helper()
	res, err := New(p, Config{MaxOps: 50_000_000}).Run(nil)
	if err != nil {
		t.Fatalf("run %s: %v\n%s", p.Kind, err, isa.Disassemble(p))
	}
	return res
}

func checkOutput(t *testing.T, src string, want []int64) {
	t.Helper()
	conv, bsa := compileBoth(t, src)
	for _, p := range []*isa.Program{conv, bsa} {
		res := run(t, p)
		if len(res.Output) != len(want) {
			t.Fatalf("%s: output %v, want %v", p.Kind, res.Output, want)
		}
		for i := range want {
			if res.Output[i] != want[i] {
				t.Errorf("%s: output[%d] = %d, want %d", p.Kind, i, res.Output[i], want[i])
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	checkOutput(t, `
func main() {
	out(1 + 2 * 3);
	out(10 - 4 / 2);
	out(17 % 5);
	out(7 & 3);
	out(4 | 1);
	out(6 ^ 3);
	out(1 << 10);
	out(-32 >> 2);
	out(~0);
	out(-(5));
	out(!0);
	out(!42);
}`, []int64{7, 8, 2, 3, 5, 5, 1024, -8, -1, -5, 1, 0})
}

func TestComparisons(t *testing.T) {
	checkOutput(t, `
func main() {
	out(3 < 4); out(4 < 3); out(3 <= 3);
	out(5 > 4); out(4 >= 5); out(2 == 2); out(2 != 2);
}`, []int64{1, 0, 1, 1, 0, 1, 0})
}

func TestShortCircuit(t *testing.T) {
	// g tracks evaluation: the right side of && must not run when left is
	// false, and of || when left is true.
	checkOutput(t, `
var g;
func bump() { g = g + 1; return 1; }
func main() {
	g = 0;
	if (0 && bump()) { out(99); }
	out(g);
	if (1 || bump()) { out(7); }
	out(g);
	if (1 && bump()) { out(8); }
	out(g);
}`, []int64{0, 7, 0, 8, 1})
}

func TestControlFlow(t *testing.T) {
	checkOutput(t, `
func main() {
	var i;
	var sum = 0;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { continue; }
		if (i == 9) { break; }
		sum = sum + i;
	}
	out(sum); // 1+3+5+7 = 16
	var n = 3;
	while (n > 0) { out(n); n = n - 1; }
}`, []int64{16, 3, 2, 1})
}

func TestRecursionAndCalls(t *testing.T) {
	checkOutput(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func ack(m, n) {
	if (m == 0) { return n + 1; }
	if (n == 0) { return ack(m - 1, 1); }
	return ack(m - 1, ack(m, n - 1));
}
func main() {
	out(fib(15));
	out(ack(2, 3));
}`, []int64{610, 9})
}

func TestGlobalsAndArrays(t *testing.T) {
	checkOutput(t, `
var g;
var a[10];
func main() {
	var i;
	g = 5;
	for (i = 0; i < 10; i = i + 1) { a[i] = i * i; }
	var sum = 0;
	for (i = 0; i < 10; i = i + 1) { sum = sum + a[i]; }
	out(sum);     // 285
	out(a[3]);    // 9
	out(g + a[g]); // 5 + 25
}`, []int64{285, 9, 30})
}

func TestLocalArrays(t *testing.T) {
	checkOutput(t, `
func sum3(x) {
	var b[3];
	b[0] = x; b[1] = x * 2; b[2] = x * 3;
	return b[0] + b[1] + b[2];
}
func main() {
	out(sum3(4)); // 24
	out(sum3(1)); // 6
}`, []int64{24, 6})
}

func TestManyLocalsForceSpills(t *testing.T) {
	// More live values than the 18 allocatable registers.
	src := `
func main() {
	var a0 = 1; var a1 = 2; var a2 = 3; var a3 = 4; var a4 = 5;
	var a5 = 6; var a6 = 7; var a7 = 8; var a8 = 9; var a9 = 10;
	var b0 = 11; var b1 = 12; var b2 = 13; var b3 = 14; var b4 = 15;
	var b5 = 16; var b6 = 17; var b7 = 18; var b8 = 19; var b9 = 20;
	var c0 = 21; var c1 = 22; var c2 = 23; var c3 = 24; var c4 = 25;
	out(a0+a1+a2+a3+a4+a5+a6+a7+a8+a9+b0+b1+b2+b3+b4+b5+b6+b7+b8+b9+c0+c1+c2+c3+c4);
}`
	checkOutput(t, src, []int64{325})
}

func TestDeepCallChainUsesStack(t *testing.T) {
	checkOutput(t, `
func down(n, acc) {
	if (n == 0) { return acc; }
	return down(n - 1, acc + n);
}
func main() { out(down(100, 0)); }`, []int64{5050})
}

func TestReturnValueOfMain(t *testing.T) {
	conv, bsa := compileBoth(t, `func main() { return 42; }`)
	if got := run(t, conv).ReturnValue; got != 42 {
		t.Errorf("conventional main returned %d", got)
	}
	if got := run(t, bsa).ReturnValue; got != 42 {
		t.Errorf("block-structured main returned %d", got)
	}
}

func TestStatsCollected(t *testing.T) {
	conv, bsa := compileBoth(t, `
var a[4];
func main() {
	var i; var s = 0;
	for (i = 0; i < 100; i = i + 1) { a[i & 3] = i; s = s + a[i & 3]; }
	out(s);
}`)
	rc := run(t, conv)
	rb := run(t, bsa)
	if rc.Stats.Ops == 0 || rc.Stats.Blocks == 0 {
		t.Error("conventional stats empty")
	}
	if rc.Stats.Branches < 100 {
		t.Errorf("conventional branches = %d, want >= 100", rc.Stats.Branches)
	}
	if rc.Stats.Loads == 0 || rc.Stats.Stores == 0 {
		t.Error("load/store counts empty (array traffic expected)")
	}
	if got := rc.Stats.AvgBlockSize(); got <= 1 {
		t.Errorf("avg block size = %f", got)
	}
	if rb.Stats.Blocks == 0 {
		t.Error("block-structured stats empty")
	}
	// Both ISAs perform the same computation; op counts are similar (BSA
	// drops explicit jumps).
	if rb.Stats.Ops > rc.Stats.Ops {
		t.Errorf("bsa executed more ops (%d) than conventional (%d)", rb.Stats.Ops, rc.Stats.Ops)
	}
}

func TestEventStreamInvariant(t *testing.T) {
	conv, bsa := compileBoth(t, `
func f(x) { if (x % 3 == 0) { return x; } return x * 2; }
func main() {
	var i;
	for (i = 0; i < 50; i = i + 1) { out(f(i)); }
}`)
	for _, p := range []*isa.Program{conv, bsa} {
		var prev isa.BlockID = isa.NoBlock
		var blocks, ops int64
		_, err := New(p, Config{}).Run(func(ev *BlockEvent) error {
			if prev != isa.NoBlock && ev.Block.ID != prev {
				t.Fatalf("%s: stream gap: expected B%d, got B%d", p.Kind, prev, ev.Block.ID)
			}
			// Each event's Next must either be NoBlock (halt), a successor,
			// or a call/return transfer.
			if ev.SuccIdx >= 0 && ev.Block.Succs[ev.SuccIdx] != ev.Next {
				t.Fatalf("%s: SuccIdx inconsistent", p.Kind)
			}
			nLoadsStores := 0
			for i := range ev.Block.Ops {
				op := ev.Block.Ops[i].Opcode
				if op == isa.LD || op == isa.ST {
					nLoadsStores++
				}
			}
			if len(ev.MemAddrs) != nLoadsStores {
				t.Fatalf("%s: B%d MemAddrs %d entries, want %d", p.Kind, ev.Block.ID, len(ev.MemAddrs), nLoadsStores)
			}
			prev = ev.Next
			blocks++
			ops += int64(len(ev.Block.Ops))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Kind, err)
		}
		if prev != isa.NoBlock {
			t.Errorf("%s: stream did not end with halt", p.Kind)
		}
		if blocks == 0 || ops == 0 {
			t.Errorf("%s: empty stream", p.Kind)
		}
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	conv, _ := compileBoth(t, `
var g;
func main() { g = 0; out(5 / g); }`)
	if _, err := New(conv, Config{}).Run(nil); err == nil {
		t.Error("division by zero should fail")
	}
}

func TestOpBudgetEnforced(t *testing.T) {
	conv, _ := compileBoth(t, `
func main() { var i = 0; while (1) { i = i + 1; } }`)
	if _, err := New(conv, Config{MaxOps: 10_000}).Run(nil); err == nil {
		t.Error("infinite loop should exceed budget")
	}
}

func TestMemoryModel(t *testing.T) {
	m := NewMemory()
	if v, err := m.LoadWord(0x1000); err != nil || v != 0 {
		t.Errorf("uninitialized load = %d, %v", v, err)
	}
	if err := m.StoreWord(0x1000, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LoadWord(0x1000); v != 99 {
		t.Errorf("load after store = %d", v)
	}
	if _, err := m.LoadWord(0x1001); err == nil {
		t.Error("misaligned load should fail")
	}
	if err := m.StoreWord(0x1002, 1); err == nil {
		t.Error("misaligned store should fail")
	}
}
