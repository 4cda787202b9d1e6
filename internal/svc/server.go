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
	// Workers is the simulation worker pool size (<= 0 means GOMAXPROCS).
	// It bounds concurrent jobs, not concurrent connections: each job fans
	// its own replays/lanes out over the engines' internal pools, so the
	// two multiply — keep Workers small on shared machines.
	Workers int
	// QueueDepth is how many accepted jobs may wait for a worker before
	// enqueueing blocks (and the client's deadline starts rejecting);
	// <= 0 means 2*Workers.
	QueueDepth int
	// JobWorkers bounds each job's internal engine concurrency
	// (uarch.SimulateMany / SweepICache workers; <= 0 means GOMAXPROCS).
	JobWorkers int
	// DefaultTimeout caps jobs that carry no timeout_ms of their own
	// (0 = no cap). A request's own timeout may only shorten it.
	DefaultTimeout time.Duration
	// ProgramCacheEntries / TraceCacheEntries / PredecodeCacheEntries bound
	// the artifact caches (<= 0 means 32 programs / 16 traces / 32
	// predecoded tables; traces are the big artifacts).
	ProgramCacheEntries   int
	TraceCacheEntries     int
	PredecodeCacheEntries int
	// Store, when non-nil, persists recorded traces (and their predecoded op
	// tables) on disk under the in-memory trace cache: misses fall through to
	// the store before re-recording, and fresh recordings write through. A
	// nil Store keeps the service purely in-memory.
	Store *Store
	// Logger receives structured per-job logs (nil = slog.Default()).
	Logger *slog.Logger
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.ProgramCacheEntries <= 0 {
		c.ProgramCacheEntries = 32
	}
	if c.TraceCacheEntries <= 0 {
		c.TraceCacheEntries = 16
	}
	if c.PredecodeCacheEntries <= 0 {
		c.PredecodeCacheEntries = 32
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server runs simulation jobs on a bounded worker pool behind an HTTP/JSON
// API. Construct with NewServer, serve Handler(), and Close() to drain:
// in-flight jobs run to completion (shut the http.Server down first so no
// new jobs arrive), then the pool exits.
type Server struct {
	cfg     ServerConfig
	metrics *metrics

	programs   *artifactCache // ProgramSpec -> *builtProgram
	traces     *artifactCache // program+budget -> *emu.Trace
	predecodes *artifactCache // program+issue width -> *uarch.Predecoded

	coal *coalescer // folds concurrent identical requests onto one pass

	jobs   chan *job
	wg     sync.WaitGroup
	nextID atomic.Int64

	stopMu  sync.RWMutex
	stopped bool
}

// jobOutcome is what a worker hands back to the waiting handler: the
// response envelope plus the raw error for status-code classification
// (the envelope itself carries only the error text).
type jobOutcome struct {
	resp *SimResponse
	err  error
}

// job couples one validated request with the channel its handler waits on.
type job struct {
	ctx  context.Context
	id   int64
	req  *SimRequest
	plan *Plan
	done chan jobOutcome // buffered; the worker never blocks on it
}

// NewServer builds and starts the worker pool.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		metrics:    newMetrics(),
		programs:   newArtifactCache(cfg.ProgramCacheEntries),
		traces:     newArtifactCache(cfg.TraceCacheEntries),
		predecodes: newArtifactCache(cfg.PredecodeCacheEntries),
		coal:       newCoalescer(),
		jobs:       make(chan *job, cfg.QueueDepth),
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.metrics.queued.Add(-1)
		s.metrics.jobsTotal.Add(1)
		s.metrics.inFlight.Add(1)
		resp, err := s.execute(j)
		s.metrics.inFlight.Add(-1)
		if err != nil {
			s.metrics.jobsFailed.Add(1)
		}
		j.done <- jobOutcome{resp: resp, err: err}
	}
}

// Close drains the worker pool: every job already accepted runs to
// completion, then the workers exit and the artifact caches drop their
// entries, unmapping store-mapped traces. New submissions are refused with
// 503.
// Shut the HTTP listener down (http.Server.Shutdown) before calling Close so
// handlers are not still enqueueing.
func (s *Server) Close() {
	s.stopMu.Lock()
	if s.stopped {
		s.stopMu.Unlock()
		return
	}
	s.stopped = true
	s.stopMu.Unlock()
	close(s.jobs)
	s.wg.Wait()
	// With the workers drained nothing holds a job reference, so dropping
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
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, errPlanDeadline)
		defer cancel()
	}

	// Coalesce concurrent identical plans onto one pass: the first request
	// for a key leads and runs the job; the rest wait on its flight and share
	// the outcome. A follower whose leader died of its *own* lifetime (the
	// leader's client went away, or the client's own request deadline fired)
	// retries — that outcome says nothing about this request — and either
	// leads the next flight or joins one that formed in the meantime.
	//
	// A job that exceeded its plan's deadline is different: that outcome is a
	// property of the plan, and the same pass would be just as doomed under
	// the next follower, so followers share it instead of serially re-running
	// it (the retry storm this distinction exists to prevent). Leaders mark
	// those outcomes with errPlanDeadline; the mark is derived from the
	// timeout context's cancellation cause, so a client disconnect is never
	// misclassified as a plan deadline. Lifetime retries are additionally
	// capped so a pathological churn of dying leaders cannot pin a follower
	// in the loop forever.
	key := coalesceKey(plan)
	for retries := 0; ; retries++ {
		f, leader := s.coal.join(key)
		if leader {
			out := s.runJob(ctx, req, plan)
			if errors.Is(out.err, context.DeadlineExceeded) && errors.Is(context.Cause(ctx), errPlanDeadline) {
				out.err = fmt.Errorf("%w: %w", errPlanDeadline, out.err)
			}
			s.coal.finish(key, f, out)
			s.answer(w, req.ID, out)
			return
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			s.reject(w, req.ID, statusForCtx(ctx.Err()),
				fmt.Errorf("svc: gave up waiting on coalesced pass: %w", ctx.Err()))
			return
		}
		out := f.out
		if leaderLifetimeOutcome(out.err) && retries < maxFollowerRetries {
			continue // leader-lifetime outcome; run our own pass
		}
		s.metrics.coalesced.Add(1)
		if out.resp != nil {
			// Share the leader's envelope but keep this request's identity.
			resp := *out.resp
			resp.ID = req.ID
			resp.Coalesced = true
			out.resp = &resp
		}
		s.answer(w, req.ID, out)
		return
	}
}

// errPlanDeadline marks a pass that exceeded its own plan's deadline (the
// request's timeout_ms or the server default), as opposed to dying with its
// leader's lifetime. Plan-deadline outcomes are deterministic for the plan:
// coalesced followers share them rather than re-running the doomed pass. A
// client that wants the answer anyway should retry with a longer timeout_ms
// once the flight has closed; that request leads its own pass under its own
// deadline.
var errPlanDeadline = errors.New("svc: pass exceeded its plan deadline")

// maxFollowerRetries caps how many leader-lifetime outcomes one follower will
// chase with a fresh flight before giving up and sharing the last outcome.
const maxFollowerRetries = 2

// leaderLifetimeOutcome reports whether a flight outcome only reflects the
// leader's own lifetime — its client disconnecting (Canceled) or the client's
// own request deadline (DeadlineExceeded without the plan-deadline mark) —
// and therefore says nothing about whether a follower's pass would succeed.
func leaderLifetimeOutcome(err error) bool {
	if errors.Is(err, errPlanDeadline) {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Sentinels for submission failures that never reach a worker; answer maps
// them to 503 and counts them as rejections.
var (
	errDraining  = errors.New("svc: server draining")
	errQueueFull = errors.New("svc: queue full, gave up waiting")
)

// runJob submits one validated plan to the worker pool and waits for its
// outcome. On drain or queue-full it returns a sentinel outcome with a nil
// response instead.
func (s *Server) runJob(ctx context.Context, req *SimRequest, plan *Plan) jobOutcome {
	s.stopMu.RLock()
	stopped := s.stopped
	s.stopMu.RUnlock()
	if stopped {
		return jobOutcome{err: errDraining}
	}
	j := &job{ctx: ctx, id: s.nextID.Add(1), req: req, plan: plan, done: make(chan jobOutcome, 1)}
	s.metrics.queued.Add(1)
	select {
	case s.jobs <- j:
	case <-ctx.Done():
		s.metrics.queued.Add(-1)
		return jobOutcome{err: fmt.Errorf("%w: %v", errQueueFull, ctx.Err())}
	}
	// The worker always answers: on cancellation it answers with the
	// context error. Waiting here (rather than racing ctx.Done) keeps the
	// handler alive until the pool is done with the job, which is what lets
	// http.Server.Shutdown double as the in-flight drain barrier.
	return <-j.done
}

// answer writes one outcome, classifying the error into an HTTP status.
func (s *Server) answer(w http.ResponseWriter, id string, out jobOutcome) {
	if errors.Is(out.err, errDraining) || errors.Is(out.err, errQueueFull) {
		s.reject(w, id, http.StatusServiceUnavailable, out.err)
		return
	}
	status := http.StatusOK
	switch {
	case errors.Is(out.err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(out.err, context.Canceled):
		// Client went away; the status is academic but 499-ish.
		status = http.StatusServiceUnavailable
	case errors.Is(out.err, ErrBadRequest):
		status = http.StatusBadRequest
	case out.err != nil:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, out.resp)
}

// statusForCtx maps a handler-context error to the waiting follower's status.
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// reject answers without pooling a job.
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
