// bsimd is the simulation service daemon: an HTTP/JSON API over the
// compile → enlarge → trace → simulate pipeline, with a bound on concurrent
// jobs, per-job deadlines, an artifact cache that lets repeated sweeps over
// the same program skip compilation and trace recording, Prometheus-text
// metrics, pprof, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	bsimd [-addr :8023] [-workers N] [-timeout D]
//	      [-store DIR] [-store-max-bytes N] [-log text|json]
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
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
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

	// Bind before announcing, so the log names the port actually bound
	// (-addr may ask for port 0) and a taken port fails here.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsimd:", err)
		os.Exit(1)
	}
	server := svc.NewServer(cfg)
	httpSrv := newHTTPServer(server.Handler())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("bsimd listening", "addr", ln.Addr().String())

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
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
