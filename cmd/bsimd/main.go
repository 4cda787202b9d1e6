// bsimd is the simulation service daemon: an HTTP/JSON API over the
// compile → enlarge → trace → simulate pipeline, with a bounded worker
// pool, per-job deadlines, an artifact cache that lets repeated sweeps over
// the same program skip compilation and trace recording, Prometheus-text
// metrics, pprof, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	bsimd [-addr :8023] [-workers N] [-queue N] [-job-workers N]
//	      [-timeout D] [-cache-programs N] [-cache-traces N]
//	      [-cache-predecodes N] [-store DIR] [-store-max-bytes N]
//	      [-log text|json] [-smoke]
//
// Endpoints:
//
//	POST /v1/sim        submit a svc.SimRequest, receive a svc.SimResponse
//	GET  /healthz       liveness
//	GET  /metrics       Prometheus text format
//	     /debug/pprof/  runtime profiling
//
// Every job runs on the engine uarch.Run routes its configurations to: a
// sweepable grid on the unified sweep (engine "sweep"), anything else —
// a single config included — as one replay per config (engine
// "simulate-many"); the job log's engine_reason says why. Concurrent
// identical requests coalesce onto one simulation pass; followers are
// answered from the leader's envelope with "coalesced": true and counted in
// bsimd_coalesced_requests_total.
//
// -store DIR layers a persistent content-addressed trace store under the
// in-memory caches: recorded traces (and their predecoded op tables) are
// written through to DIR, and a restarted daemon pointed at the same DIR
// serves them back without re-recording — hit/miss/corruption counts and
// byte traffic appear on /metrics as bsimd_store_events_total and
// bsimd_store_bytes_total. Store hits on fixed-stride v3 trace files are
// mmapped read-only and replayed straight out of the page cache (zero
// decode, zero steady-state allocation); legacy v1/v2 files are rewritten
// to v3 on first touch. Mapping traffic and resident bytes appear as
// bsimd_store_mmap_events_total and bsimd_store_mmap_resident_bytes.
// Corrupt or truncated files are detected by checksum, quarantined aside
// as *.corrupt, and rebuilt. -store-max-bytes caps the directory's total
// *.bstr size: after each write the least-recently-used files (by atime)
// are evicted until the cap holds, never touching a file an in-flight
// replay still has mapped (evictions count on bsimd_store_events_total).
//
// -smoke runs the self-check the CI service-smoke stage uses: it starts a
// server on an ephemeral port (pool shape pinned: one worker, four job
// workers) and checks, over HTTP against the direct library path: a
// Figure-6-style icache sweep, a predictor sweep served from the cached
// trace, a single-config replay, a four-way head-to-head across
// every registered ISA backend (plus an unknown-ISA rejection carrying the
// machine-readable error_code), and a 32-way identical load that
// must coalesce onto one pass — then verifies cache hits, the coalesced
// count, and both engine stages on /metrics, seeds the store with a
// legacy-format trace file to prove first touch rewrites it to v3, and
// finally restarts against the same trace store (the -store directory, or a
// temporary one) to prove a fresh process answers the sweep from mmapped v3
// files with zero trace recordings and zero full decodes.
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
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 2*workers)")
	jobWorkers := flag.Int("job-workers", 0, "per-job engine concurrency (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = none)")
	cacheProgs := flag.Int("cache-programs", 0, "compiled-program cache entries (0 = default)")
	cacheTraces := flag.Int("cache-traces", 0, "recorded-trace cache entries (0 = default)")
	cachePre := flag.Int("cache-predecodes", 0, "predecoded-op-table cache entries (0 = default)")
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
		Workers:               *workers,
		QueueDepth:            *queue,
		JobWorkers:            *jobWorkers,
		DefaultTimeout:        *timeout,
		ProgramCacheEntries:   *cacheProgs,
		TraceCacheEntries:     *cacheTraces,
		PredecodeCacheEntries: *cachePre,
		Logger:                logger,
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
		// each of which is waiting on its job — then drain the pool.
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
