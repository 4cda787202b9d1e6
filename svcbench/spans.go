package main

import (
	"runtime"
	"sort"
	"time"
)

// span is one timed call of the traced run. Every span of one request shares
// its Request id; Parent is the id of the span whose work this call is part
// of (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the traced run began
	DurNs   int64  `json:"dur_ns"`
	Allocs  uint64 `json:"allocs"` // heap objects allocated during the call
	Bytes   uint64 `json:"bytes"`  // heap bytes allocated during the call
	// Work is the call's work count: events recorded, bytes encoded, loaded
	// or marshalled, or operations simulated (see README.md).
	Work int64 `json:"work,omitempty"`
	// Configs is how many timing configurations an engine call answered.
	Configs int `json:"configs,omitempty"`
}

func (s *span) end() int64 { return s.StartNs + s.DurNs }

// tracer keeps the run's spans in memory; they are written out once, at the
// end. A tracer that is off runs calls untimed and records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// do times fn as one span and returns its id (0 when the tracer is off).
// Allocation counts come from runtime.MemStats deltas, so they include every
// goroutine the call fans out to.
func (t *tracer) do(request, parent int, name string, fn func() error) (int, error) {
	if !t.on {
		return 0, fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Request: request, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: dur.Nanoseconds(),
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	return id, err
}

// note sets the work counts of span id (a no-op for id 0).
func (t *tracer) note(id int, work int64, configs int) {
	if id > 0 {
		t.spans[id-1].Work = work
		t.spans[id-1].Configs = configs
	}
}

// rename renames span id, for a call whose outcome decides what it was (a
// no-op for id 0).
func (t *tracer) rename(id int, name string) {
	if id > 0 {
		t.spans[id-1].Name = name
	}
}

// selfTimes returns every span's self time, by id: its duration minus the
// time its direct children cover, never below zero. Overlapping children are
// counted once. The traced run repeats a request's layer calls after the
// round trip rather than inside it, so children are measured by the length
// of the intervals they cover wherever those lie, not clipped to the parent's
// own interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		v := s.DurNs - covered(children[s.ID])
		if v < 0 {
			v = 0
		}
		self[s.ID] = v
	}
	return self
}

// covered returns the total length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].StartNs < s[j].StartNs })
	var total int64
	lo, hi := s[0].StartNs, s[0].end()
	for _, c := range s[1:] {
		if c.StartNs > hi {
			total += hi - lo
			lo, hi = c.StartNs, c.end()
			continue
		}
		if c.end() > hi {
			hi = c.end()
		}
	}
	return total + hi - lo
}
