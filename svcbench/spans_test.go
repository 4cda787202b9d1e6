package main

import "testing"

// sink keeps a test allocation live so the compiler cannot drop it.
var sink []byte

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A request whose round trip took 100; its layer calls are repeated
		// after it (not inside its interval), so they count by length.
		{ID: 1, Parent: 0, StartNs: 0, DurNs: 100},
		{ID: 2, Parent: 1, StartNs: 150, DurNs: 30},
		{ID: 3, Parent: 1, StartNs: 180, DurNs: 20},
		// A grandchild lowers its parent's self time, not the request's.
		{ID: 4, Parent: 3, StartNs: 190, DurNs: 5},
		// A parent with overlapping children counts the overlap once.
		{ID: 5, Parent: 0, StartNs: 1000, DurNs: 100},
		{ID: 6, Parent: 5, StartNs: 1010, DurNs: 20},
		{ID: 7, Parent: 5, StartNs: 1020, DurNs: 30},
		// Children covering more than the parent clamp its self time at 0.
		{ID: 8, Parent: 0, StartNs: 2000, DurNs: 10},
		{ID: 9, Parent: 8, StartNs: 2100, DurNs: 40},
	}
	want := map[int]int64{1: 50, 2: 30, 3: 15, 4: 5, 5: 60, 6: 20, 7: 30, 8: 0, 9: 40}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	for _, c := range []struct {
		spans []span
		want  int64
	}{
		{nil, 0},
		{[]span{{StartNs: 5, DurNs: 10}}, 10},
		{[]span{{StartNs: 0, DurNs: 10}, {StartNs: 10, DurNs: 10}}, 20},   // touching
		{[]span{{StartNs: 20, DurNs: 5}, {StartNs: 0, DurNs: 10}}, 15},    // unsorted, disjoint
		{[]span{{StartNs: 0, DurNs: 100}, {StartNs: 10, DurNs: 10}}, 100}, // nested
	} {
		if got := covered(c.spans); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.spans, got, c.want)
		}
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	tr := &tracer{}
	id, err := tr.do(1, 0, "x", func() error { return nil })
	if id != 0 || err != nil || len(tr.spans) != 0 {
		t.Fatalf("tracer off: id %d, err %v, %d spans", id, err, len(tr.spans))
	}
	tr.on = true
	parent, _ := tr.do(1, 0, "parent", func() error { return nil })
	child, _ := tr.do(1, parent, "child", func() error { sink = make([]byte, 1<<20); return nil })
	tr.note(child, 42, 3)
	tr.rename(child, "renamed")
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	s := tr.spans[child-1]
	if s.Parent != parent || s.Request != 1 || s.Name != "renamed" || s.Work != 42 || s.Configs != 3 {
		t.Errorf("child span %+v", s)
	}
	if s.Bytes < 1<<20 {
		t.Errorf("child span counted %d allocated bytes, want at least 1 MiB", s.Bytes)
	}
}
