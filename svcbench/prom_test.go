package main

import (
	"io"
	"strings"
	"testing"
)

// liveServer starts a benchmark server for a test, with a store when withStore.
func liveServer(t *testing.T, withStore bool) *benchServer {
	t.Helper()
	dir := ""
	if withStore {
		dir = t.TempDir()
	}
	srv, err := startServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	return srv
}

// TestScrapeLiveServer parses /metrics of a real svc.Server and checks that
// one cold sweep moves exactly the counters the tier guards read.
func TestScrapeLiveServer(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		srv := liveServer(t, withStore)
		client := newClient(1)
		before, err := srv.scrape(client)
		if err != nil {
			t.Fatalf("store=%v: %v", withStore, err)
		}
		br, err := newRequest("probe", icacheSweep("compress", "conv", 0.01))
		if err != nil {
			t.Fatal(err)
		}
		s := post(client, srv.ts.URL, br)
		if err := s.decode(); err != nil {
			t.Fatalf("store=%v: %v", withStore, err)
		}
		after, err := srv.scrape(client)
		if err != nil {
			t.Fatalf("store=%v: %v", withStore, err)
		}
		d := sub(after, before)
		want := map[string]int64{
			`bsimd_jobs_total`:               1,
			seriesRecords:                    1,
			seriesRejected:                   0,
			cacheSeries("program", "miss"):   1,
			cacheSeries("trace", "miss"):     1,
			cacheSeries("predecode", "miss"): 1,
			cacheSeries("program", "hit"):    0,
		}
		if withStore {
			want[storeSeries("miss")] = 1  // the load before recording
			want[storeSeries("write")] = 2 // the trace, then its predecode aux
			want[storeSeries("hit")] = 0
		}
		for series, v := range want {
			if got := d.count(series); got != v {
				t.Errorf("store=%v: delta of %s = %d, want %d", withStore, series, got, v)
			}
		}
		if err := tierCold.guard(d, []sample{s}); withStore && err != nil {
			t.Errorf("a cold request breaches the cold guard: %v", err)
		}
		if err := tierWarm.guard(d, []sample{s}); err == nil {
			t.Errorf("store=%v: a cold request passes the warm guard", withStore)
		}
	}
}

// TestRenamedSeriesFailsLoudly renames series in a live exposition and
// checks that the scrape refuses it instead of reading the series as zero.
func TestRenamedSeriesFailsLoudly(t *testing.T) {
	srv := liveServer(t, true)
	resp, err := newClient(1).Get(srv.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if s, err := parseProm(strings.NewReader(text)); err != nil || s.require(true) != nil {
		t.Fatalf("live exposition rejected: parse %v", err)
	}
	for _, c := range []struct{ from, to, missing string }{
		{"bsimd_trace_records_total", "bsimd_traces_recorded_total", seriesRecords},
		{`event="fulldecode"`, `event="full_decode"`, storeSeries("fulldecode")},
		{`cache="predecode"`, `cache="predecoded"`, cacheSeries("predecode", "hit")},
	} {
		s, err := parseProm(strings.NewReader(strings.ReplaceAll(text, c.from, c.to)))
		if err != nil {
			t.Fatal(err)
		}
		err = s.require(true)
		if err == nil || !strings.Contains(err.Error(), "lacks series") {
			t.Errorf("renaming %s: require = %v, want a missing-series error", c.from, err)
		}
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"novalue\n", "bsimd_jobs_total abc\n"} {
		if _, err := parseProm(strings.NewReader(text)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
	s, err := parseProm(strings.NewReader("# HELP x y\n# TYPE x counter\nx 3\ny{a=\"b c\"} 1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s["x"] != 3 || s[`y{a="b c"}`] != 1.5 {
		t.Errorf("parsed %v", s)
	}
}
