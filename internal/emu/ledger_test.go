package emu

import (
	"reflect"
	"runtime"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/isa"
	"bsisa/internal/workload"
)

// recordAlloc records prog and reports the bytes the recording allocated.
func recordAlloc(t *testing.T, prog *isa.Program) (*Trace, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Record(prog, Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return tr, after.TotalAlloc - before.TotalAlloc
}

// TestRecordAllocLedger bounds what a recording allocates. li at two scales
// allocates at most 2.5× its trace's Footprint, the chunks plus one
// exact-size copy of each column; growing the columns by append cost about
// 5×. Every column comes out exact-size, so Footprint is what the trace
// holds. A ten-event program records in under 16 KB, most of it its
// 1,024-entry first chunks; a fixed 32K-entry first chunk would cost over
// 200 KB.
func TestRecordAllocLedger(t *testing.T) {
	for _, scale := range []float64{0.05, 0.25} {
		prof, ok := workload.ProfileByName("li", scale)
		if !ok {
			t.Fatal("no li profile")
		}
		src, err := workload.Source(prof)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Compile(src, "li", compile.DefaultOptions(isa.Conventional))
		if err != nil {
			t.Fatal(err)
		}
		tr, alloc := recordAlloc(t, prog)
		ratio := float64(alloc) / float64(tr.Footprint())
		t.Logf("li at scale %.2f: %d events, %d B allocated for a %d B Footprint (%.2f×)",
			scale, tr.NumEvents(), alloc, tr.Footprint(), ratio)
		if ratio > 2.5 {
			t.Errorf("li at scale %.2f: recording allocated %.2f× the trace's Footprint, want at most 2.5×", scale, ratio)
		}
		for _, col := range []struct {
			name     string
			len, cap int
		}{
			{"blocks", len(tr.blocks), cap(tr.blocks)},
			{"succIdx", len(tr.succIdx), cap(tr.succIdx)},
			{"taken", len(tr.taken), cap(tr.taken)},
			{"mem", len(tr.mem), cap(tr.mem)},
			{"memCnt", len(tr.memCnt), cap(tr.memCnt)},
		} {
			if col.len != col.cap {
				t.Errorf("li at scale %.2f: column %s has length %d, capacity %d", scale, col.name, col.len, col.cap)
			}
		}
	}

	prog, err := compile.Compile(`func main() { var i; for (i = 0; i < 3; i = i + 1) { out(i); } }`,
		"small", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, alloc := recordAlloc(t, prog)
	t.Logf("small program: %d events, %d B allocated", tr.NumEvents(), alloc)
	if n := tr.NumEvents(); n < 5 || n > 20 {
		t.Fatalf("the small program commits %d blocks, want about ten", n)
	}
	if alloc > 16<<10 {
		t.Errorf("recording %d events allocated %d B, want at most 16 KB", tr.NumEvents(), alloc)
	}
}

// TestColumnChunks fills a column well past maxChunk, one value and
// several at a time, and requires slice to return exactly what append
// builds, at exact size.
func TestColumnChunks(t *testing.T) {
	var c column[uint32]
	var want []uint32
	v := uint32(0)
	for len(want) < 3*maxChunk+minChunk {
		for k := 0; k <= len(want)%7; k++ {
			c.push(v)
			want = append(want, v)
			v++
		}
		run := make([]uint32, len(want)%5000)
		for i := range run {
			run[i] = v
			v++
		}
		c.pushAll(run)
		want = append(want, run...)
	}
	got := c.slice()
	if len(got) != cap(got) {
		t.Fatalf("slice has length %d, capacity %d", len(got), cap(got))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("slice differs from the values pushed")
	}
	for i, ch := range c.done {
		if cap(ch) > maxChunk || len(ch) != cap(ch) {
			t.Fatalf("chunk %d holds %d of %d entries (cap %d)", i, len(ch), cap(ch), maxChunk)
		}
	}
}
