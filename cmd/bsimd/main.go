// bsimd is the simulation service daemon: an HTTP/JSON API over the
// compile → enlarge → trace → simulate pipeline, with a bound on concurrent
// jobs, per-job deadlines, an artifact cache that lets repeated sweeps over
// the same program skip compilation and trace recording, Prometheus-text
// metrics, pprof, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	bsimd [-addr :8023] [-workers N] [-timeout D]
//	      [-store DIR] [-store-max-bytes N] [-log text|json] [-smoke]
//
// Endpoints:
//
//	POST /v1/sim        submit a svc.SimRequest, receive a svc.SimResponse
//	GET  /healthz       liveness
//	GET  /metrics       Prometheus text format
//	     /debug/pprof/  runtime profiling
//
// Each request's job runs start to finish on the request's own goroutine
// once it holds one of -workers slots, so at most -workers jobs simulate at
// once; the rest wait for a slot, counted in bsimd_jobs_queued. Every job
// runs on the engine uarch.Run routes its configurations to: a sweepable
// grid on the unified sweep (engine "sweep"), anything else — a single
// config included — as one replay per config (engine "simulate-many"); the
// job log's engine_reason says why. -timeout caps every job, recording
// included; a request's timeout_ms may only shorten it. A request whose
// deadline ends before it gets a slot is answered 503 "unavailable".
// Identical requests in flight at once each run their own pass; the
// artifact caches share the program, trace and predecode builds among them.
//
// -store DIR layers a persistent content-addressed trace store under the
// in-memory caches: recorded traces (and their predecoded op tables) are
// written through to DIR, and a restarted daemon pointed at the same DIR
// serves them back without re-recording — hit/miss/corruption counts and
// byte traffic appear on /metrics as bsimd_store_events_total and
// bsimd_store_bytes_total. Store hits are mmapped read-only and replayed
// straight out of the page cache (zero decode, zero steady-state
// allocation); mapping traffic and resident bytes appear as
// bsimd_store_mmap_events_total and bsimd_store_mmap_resident_bytes.
// Corrupt or truncated files, and files in a format version other than the
// fixed-stride v3 this release writes, are detected on load, quarantined
// aside as *.corrupt, and rebuilt. -store-max-bytes caps the directory's
// total size of *.bstr files and their quarantined copies: after each write
// the quarantined copies are evicted first, then the least-recently-used
// files (by atime), until the cap holds, never touching a file an in-flight
// replay still has mapped (evictions count on bsimd_store_events_total).
//
// -smoke runs the self-check the CI service-smoke stage uses: it starts a
// server on an ephemeral port and checks, over HTTP against the direct
// library path: a Figure-6-style icache sweep, a predictor sweep served from
// the cached trace, a single-config replay, a four-way head-to-head across
// every registered ISA backend (plus an unknown-ISA rejection carrying the
// machine-readable error_code), and 32 concurrent identical sweeps that must
// each answer the first sweep's results from the program and trace caches —
// then verifies cache hits and both engine stages on /metrics, and finally
// restarts against the same trace store (the -store directory, or a
// temporary one) to prove a fresh process answers the sweep from mmapped
// store files with zero trace recordings.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bsisa/internal/svc"
)

func main() {
	addr := flag.String("addr", ":8023", "listen address")
	workers := flag.Int("workers", 0, "jobs that may simulate at once (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = none)")
	storeDir := flag.String("store", "", "persistent trace store directory (empty = in-memory only)")
	storeMax := flag.Int64("store-max-bytes", 0,
		"evict least-recently-used store files once the directory exceeds this many bytes (0 = unbounded)")
	logFormat := flag.String("log", "text", "log format: text or json")
	smoke := flag.Bool("smoke", false, "run the self-check against an ephemeral server and exit")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "bsimd: unknown -log format %q\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	cfg := svc.ServerConfig{
		Workers:        *workers,
		DefaultTimeout: *timeout,
		Logger:         logger,
	}
	if *storeDir != "" {
		store, err := svc.NewStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsimd:", err)
			os.Exit(1)
		}
		if *storeMax > 0 {
			store.SetMaxBytes(*storeMax)
		}
		cfg.Store = store
		logger.Info("trace store open", "dir", *storeDir, "max_bytes", *storeMax)
	}

	if *smoke {
		if err := runSmoke(cfg, logger); err != nil {
			fmt.Fprintln(os.Stderr, "bsimd: smoke FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bsimd: smoke PASS")
		return
	}

	server := svc.NewServer(cfg)
	httpSrv := newHTTPServer(server.Handler())
	httpSrv.Addr = *addr

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("bsimd listening", "addr", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("shutting down: draining in-flight jobs", "signal", sig.String())
		// Stop accepting connections and wait for in-flight handlers —
		// each of which runs its own job — then drain the server.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		server.Close()
		logger.Info("drained, exiting")
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		server.Close()
		os.Exit(1)
	}
}

// newHTTPServer wraps the service handler in an http.Server with fixed
// connection bounds, so a slow or stalled client cannot pin a connection:
// headers must arrive within ReadHeaderTimeout and the whole request (its
// body capped by the service) within ReadTimeout. net/http clears the read
// deadline once the handler has consumed the body, so the deadline never
// cancels a long job. Idle keep-alive connections close after IdleTimeout.
// The smoke servers use it too.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
