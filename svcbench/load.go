package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"bsisa/internal/svc"
)

// benchServer is one in-process svc.Server behind an httptest listener.
type benchServer struct {
	srv      *svc.Server
	ts       *httptest.Server
	hasStore bool
}

// startServer starts a server, over a trace store rooted at storeDir when
// storeDir is not empty. It runs with the shipped ServerConfig defaults (zero
// values) and logs into a discarded text handler, so job logs cost what they
// cost in bsimd without flooding the benchmark's output.
func startServer(storeDir string) (*benchServer, error) {
	cfg := svc.ServerConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if storeDir != "" {
		var err error
		if cfg.Store, err = svc.NewStore(storeDir); err != nil {
			return nil, err
		}
	}
	srv := svc.NewServer(cfg)
	return &benchServer{srv: srv, ts: httptest.NewServer(srv.Handler()), hasStore: cfg.Store != nil}, nil
}

// close shuts the listener down first, so no handler is still enqueueing
// when the worker pool drains.
func (b *benchServer) close() {
	b.ts.Close()
	b.srv.Close()
}

func (b *benchServer) scrape(client *http.Client) (promSample, error) {
	return scrape(client, b.ts.URL, b.hasStore)
}

// sample is one request's outcome. dur runs from writing the request to
// reading the last byte of the response; decoding happens after the clock
// stops.
type sample struct {
	req    *benchRequest
	dur    time.Duration
	status int
	body   []byte
	err    error

	resp    *svc.SimResponse // set by decode
	failure error            // set by decode: why the request failed, if it did
}

// post sends one request and reads the whole response.
func post(client *http.Client, base string, r *benchRequest) sample {
	t0 := time.Now()
	httpResp, err := client.Post(base+"/v1/sim", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return sample{req: r, dur: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	return sample{req: r, dur: time.Since(t0), status: httpResp.StatusCode, body: body, err: err}
}

// decode parses the response body and reports (and records in failure) why
// the request failed: a transport error, a non-200 status, an error envelope,
// or a result count that does not match the request. resp is kept only for a
// request that succeeded; the body is dropped either way.
func (s *sample) decode() error {
	s.failure = s.check()
	if s.failure != nil {
		s.resp = nil
	}
	s.body = nil
	return s.failure
}

func (s *sample) check() error {
	if s.err != nil {
		return fmt.Errorf("%s: %w", s.req.label, s.err)
	}
	var resp svc.SimResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("%s: bad response body: %w", s.req.label, err)
	}
	s.resp = &resp
	if s.status != http.StatusOK || resp.Error != "" {
		return fmt.Errorf("%s: status %d: %s (%s)", s.req.label, s.status, resp.Error, resp.ErrorCode)
	}
	if want := len(s.req.plan.Configs); len(resp.Results) != want {
		return fmt.Errorf("%s: %d results for %d configs", s.req.label, len(resp.Results), want)
	}
	return nil
}

// runPass is one closed-loop pass: clients goroutines pull request indices
// from one shared queue in the given order, each sending its next request
// only after the previous answer arrived. It returns the samples in queue
// order and the pass wall time.
func runPass(client *http.Client, base string, reqs []*benchRequest, order []int, clients int) ([]sample, time.Duration) {
	queue := make(chan int, len(order)) // holds the whole pass
	for pos := range order {
		queue <- pos
	}
	close(queue)
	samples := make([]sample, len(order))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range queue {
				samples[pos] = post(client, base, reqs[order[pos]])
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(t0)
}

// newClient returns the HTTP client every benchmark client shares; it keeps
// one idle connection per closed-loop client.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
}
