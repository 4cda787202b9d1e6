package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ServerConfig sizes the service.
type ServerConfig struct {
	// Workers bounds how many jobs simulate at once (<= 0 means
	// GOMAXPROCS). It bounds concurrent jobs, not concurrent connections: a
	// request's job runs start to finish on the request's own goroutine
	// once it holds one of Workers slots.
	Workers int
	// DefaultTimeout caps jobs that carry no timeout_ms of their own
	// (0 = no cap). A request's own timeout may only shorten it. A request
	// still waiting for a slot when its deadline ends is answered 503.
	DefaultTimeout time.Duration
	// Store, when non-nil, persists recorded traces (and their predecoded op
	// tables) on disk under the in-memory trace cache: misses fall through to
	// the store before re-recording, and fresh recordings write through. A
	// nil Store keeps the service purely in-memory.
	Store *Store
	// Logger receives structured per-job logs (nil = slog.Default()).
	Logger *slog.Logger
}

// Artifact cache capacities, in entries. Traces are the big artifacts: at
// the emulation cap one holds at most maxEmuOps events (DESIGN.md §14).
const (
	programCacheEntries   = 32
	traceCacheEntries     = 16
	predecodeCacheEntries = 32
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server runs simulation jobs behind an HTTP/JSON API. Each request's job
// runs on the request's own goroutine once it holds one of Workers slots;
// the server starts no goroutine of its own. Construct with NewServer,
// serve Handler(), and Close() to drain: in-flight jobs run to completion,
// later requests are refused (shut the http.Server down first so none
// arrive), then the artifact caches are purged.
type Server struct {
	cfg     ServerConfig
	metrics *metrics

	programs   *artifactCache // ProgramSpec -> *isa.Program
	traces     *artifactCache // program+budget -> *cachedTrace
	predecodes *artifactCache // program+issue width -> *uarch.Predecoded

	slots  chan struct{} // one token per running job; capacity Workers
	nextID atomic.Int64

	stopMu   sync.RWMutex
	stopped  bool
	inFlight sync.WaitGroup // requests admitted by runJob and not yet returned
}

// job is one validated request on its way through execute.
type job struct {
	ctx  context.Context
	id   int64
	req  *SimRequest
	plan *Plan
}

// NewServer builds a server with empty artifact caches.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:        cfg,
		metrics:    newMetrics(),
		programs:   newArtifactCache(programCacheEntries),
		traces:     newArtifactCache(traceCacheEntries),
		predecodes: newArtifactCache(predecodeCacheEntries),
		slots:      make(chan struct{}, cfg.Workers),
	}
}

// Close drains the server: it refuses new jobs with 503, waits for every
// job already admitted to run to completion, then drops the artifact
// caches' entries, unmapping store-mapped traces. Shut the HTTP listener
// down (http.Server.Shutdown) before calling Close so no request arrives
// only to be refused.
func (s *Server) Close() {
	s.stopMu.Lock()
	if s.stopped {
		s.stopMu.Unlock()
		return
	}
	s.stopped = true
	s.stopMu.Unlock()
	s.inFlight.Wait()
	// With every job returned nothing holds a job reference, so dropping
	// the caches' references unmaps every store-mapped trace now rather than
	// at process exit.
	s.traces.purge()
	s.programs.purge()
	s.predecodes.purge()
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/sim     submit a SimRequest, receive a SimResponse
//	GET  /healthz    liveness
//	GET  /metrics    Prometheus text format
//	     /debug/pprof/...  runtime profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var store *storeCounters
		if s.cfg.Store != nil {
			cc := s.cfg.Store.counters()
			store = &cc
		}
		s.metrics.writeProm(w, s.programs.counters(), s.traces.counters(), s.predecodes.counters(), store)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maxRequestBytes bounds a /v1/sim request body. The largest generated
// benchmark source (gcc) is about 212 KB, so this leaves room for any
// hand-written program while capping what one request can make the decoder
// and the compile pipeline hold.
const maxRequestBytes = 4 << 20

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.reject(w, "", status, err)
		return
	}
	plan, err := BuildConfig(req)
	if err != nil {
		s.reject(w, req.ID, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if plan.Timeout > 0 && (timeout == 0 || plan.Timeout < timeout) {
		timeout = plan.Timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := s.runJob(ctx, req, plan)
	s.answer(w, req.ID, resp, err)
}

// Sentinels for requests that never get a worker slot; answer maps them to
// 503 and counts them as rejections.
var (
	errDraining = errors.New("svc: server draining")
	errNoSlot   = errors.New("svc: gave up waiting for a worker slot")
)

// runJob runs one validated plan on the calling goroutine once it holds a
// worker slot. It refuses after Close with errDraining, and answers
// errNoSlot, with a nil response, when ctx ends before a slot frees.
func (s *Server) runJob(ctx context.Context, req *SimRequest, plan *Plan) (*SimResponse, error) {
	// Joining inFlight under the read lock orders every Add before Close's
	// Wait: Close marks the server stopped under the write lock first.
	s.stopMu.RLock()
	if s.stopped {
		s.stopMu.RUnlock()
		return nil, errDraining
	}
	s.inFlight.Add(1)
	s.stopMu.RUnlock()
	defer s.inFlight.Done()

	s.metrics.queued.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.metrics.queued.Add(-1)
	case <-ctx.Done():
		s.metrics.queued.Add(-1)
		return nil, fmt.Errorf("%w: %v", errNoSlot, ctx.Err())
	}
	defer func() { <-s.slots }()

	s.metrics.jobsTotal.Add(1)
	s.metrics.inFlight.Add(1)
	resp, err := s.execute(&job{ctx: ctx, id: s.nextID.Add(1), req: req, plan: plan})
	s.metrics.inFlight.Add(-1)
	if err != nil {
		s.metrics.jobsFailed.Add(1)
	}
	return resp, err
}

// answer writes one job's outcome, classifying the error into an HTTP
// status.
func (s *Server) answer(w http.ResponseWriter, id string, resp *SimResponse, err error) {
	if errors.Is(err, errDraining) || errors.Is(err, errNoSlot) {
		s.reject(w, id, http.StatusServiceUnavailable, err)
		return
	}
	status := http.StatusOK
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is academic but 499-ish.
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case err != nil:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, resp)
}

// reject answers a request that never ran a job.
func (s *Server) reject(w http.ResponseWriter, id string, status int, err error) {
	s.metrics.jobsRejected.Add(1)
	s.cfg.Logger.Warn("request rejected", "id", id, "status", status, "err", err.Error())
	writeJSON(w, status, &SimResponse{Version: SchemaVersion, ID: id, Error: err.Error(), ErrorCode: ErrorCode(err)})
}

func writeJSON(w http.ResponseWriter, status int, resp *SimResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
