package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of /metrics: every sample line keyed by its series
// exactly as exposed, e.g. `bsimd_store_events_total{event="hit"}`.
type promSample map[string]float64

// The /metrics series the benchmark reads. Each scrape must expose all of
// them (the store series only when the server has a store), so a renamed or
// dropped series fails the run instead of reading as zero.
const (
	seriesRecords   = `bsimd_trace_records_total`
	seriesCoalesced = `bsimd_coalesced_requests_total`
	seriesRejected  = `bsimd_requests_rejected_total`
	seriesMmapMaps  = `bsimd_store_mmap_events_total{event="map"}`
)

// cacheSeries names one artifact-cache counter.
func cacheSeries(cache, event string) string {
	return fmt.Sprintf(`bsimd_artifact_cache_events_total{cache=%q,event=%q}`, cache, event)
}

// storeSeries names one persistent-store event counter.
func storeSeries(event string) string {
	return fmt.Sprintf(`bsimd_store_events_total{event=%q}`, event)
}

var (
	artifactCaches = []string{"program", "trace", "predecode"}
	cacheEvents    = []string{"hit", "miss", "eviction"}
	storeEvents    = []string{"hit", "write", "corrupt", "fulldecode"}
)

// requiredSeries lists the series a scrape must carry.
func requiredSeries(withStore bool) []string {
	req := []string{seriesRecords, seriesCoalesced, seriesRejected}
	for _, c := range artifactCaches {
		for _, e := range cacheEvents {
			req = append(req, cacheSeries(c, e))
		}
	}
	if withStore {
		for _, e := range storeEvents {
			req = append(req, storeSeries(e))
		}
		req = append(req, seriesMmapMaps)
	}
	return req
}

// parseProm reads the Prometheus text exposition format: comment lines are
// skipped and every other line is `<series> <value>`.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// scrape fetches and parses base/metrics and checks that every series the
// benchmark reads is present.
func scrape(client *http.Client, base string, withStore bool) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	s, err := parseProm(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := s.require(withStore); err != nil {
		return nil, err
	}
	return s, nil
}

// require fails on the first series the benchmark reads that s lacks.
func (s promSample) require(withStore bool) error {
	for _, name := range requiredSeries(withStore) {
		if _, ok := s[name]; !ok {
			return fmt.Errorf("scrape: /metrics lacks series %s", name)
		}
	}
	return nil
}

// sub returns the per-series difference after - before.
func sub(after, before promSample) promSample {
	d := promSample{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates d into acc.
func (acc promSample) add(d promSample) {
	for k, v := range d {
		acc[k] += v
	}
}

// count returns a counter delta as an integer.
func (s promSample) count(series string) int64 { return int64(s[series]) }
