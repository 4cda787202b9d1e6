// Command svcbench is the bsimd service benchmark. It drives an in-process
// svc.Server over httptest with two closed-loop clients, checks every answer
// against the library reference path, and prints end-to-end metrics (or, with
// --trace 1, a per-layer breakdown from a traced pass). See README.md.
//
// Usage, from the repository root:
//
//	bash svcbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// commit is stamped in at build time by run.sh.
var commit = "unknown"

// Every run uses one scale and fixed set-up counts; the bounds in
// BENCHMARK.json were measured at these values.
const (
	// scale is the dynamic size of every program.
	scale = 0.25
	// setupReps is how many set-ups a timed run makes before its passes;
	// setup_s is their median.
	setupReps = 3
	// coldSetupReps replaces setupReps on serve-cold. Its set-up, a server
	// start on an empty store, takes well under a millisecond, so a median of
	// three would be mostly noise.
	coldSetupReps = 31
)

// options are the run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-cold, serve-restart or serve-warm")
	flag.Int64Var(&o.seed, "seed", 1, "seed for each pass's request order")
	flag.IntVar(&seconds, "seconds", 25, "minimum seconds of timed passes")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed phase")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch stores and the span file")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	w, ok := workloadByName(o.workload)
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, seconds, trace)
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(o.out, "svcbench-scratch-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	stamp := newHostStamp(&o, w)
	blob, _ := json.Marshal(stamp)
	fmt.Printf("# host %s\n", blob)

	var res *result
	if o.trace {
		res, err = runTracedWorkload(w, &o, scratch, stamp)
	} else {
		res, err = runTimedWorkload(w, &o, scratch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runTimedWorkload runs the timed phase, its tier guard and the reference
// check, prints the end-to-end report and returns the result line.
func runTimedWorkload(w *benchWorkload, o *options, scratch string) (*result, error) {
	run, err := runTimed(w, o, scratch)
	if err != nil {
		return nil, err
	}
	failed := map[int]bool{}
	book := newAnswerBook()
	for i := range run.samples {
		s := &run.samples[i]
		err := s.failure
		if err == nil {
			err = book.record(s)
		}
		if err != nil {
			failed[i] = true
			fmt.Fprintln(os.Stderr, "svcbench: request failed:", err)
		}
	}
	t0 := time.Now()
	v, err := judge(w.tier, run.samples, run.delta, book, failed)
	if err != nil {
		return nil, err
	}

	n := len(run.samples)
	fmt.Printf("# workload %s\n", w.name)
	fmt.Printf("# %d passes, %d requests, %.3f s timed, %d clients; %d samples beyond p90\n",
		len(run.passes), n, run.wall.Seconds(), clients, n-rank(n, 900))
	fmt.Printf("# setup samples: %d; reference check took %.1f s (untimed)\n", len(run.setups), time.Since(t0).Seconds())
	v.print(len(book.answers))
	m := timedMetrics(run, v.failed)
	m.print()

	// error_rate is printed above but kept out of the result line's metrics:
	// it is zero on a healthy run, and the line's attempted/failed carry it.
	metrics := map[string]metricValue{}
	for _, name := range m.names {
		if name != "error_rate" {
			metrics[name] = m.vals[name]
		}
	}
	return &result{Correct: v.failed == 0, Attempted: n, Failed: v.failed, Metrics: metrics}, nil
}

// verdict is a run's correctness: how many samples failed, how many distinct
// answers differed from the reference, and whether the tier guard held.
type verdict struct {
	failed     int
	mismatches int
	guardErr   error
}

// judge applies the tier guard and the reference check to a run. failed holds
// the samples already known to have failed; the samples with an answer the
// reference check rejects join them, and a guard breach fails every sample.
func judge(t tier, samples []sample, delta promSample, book *answerBook, failed map[int]bool) (verdict, error) {
	v := verdict{guardErr: t.guard(delta, samples)}
	var err error
	if v.mismatches, err = book.check(runtime.GOMAXPROCS(0)); err != nil {
		return v, fmt.Errorf("reference path: %w", err)
	}
	for i := range samples {
		if s := &samples[i]; s.resp != nil && book.sampleBad(s) {
			failed[i] = true
		}
	}
	v.failed = len(failed)
	if v.guardErr != nil {
		fmt.Fprintln(os.Stderr, "svcbench: tier guard breached:", v.guardErr)
		v.failed = len(samples)
	}
	return v, nil
}

// print reports the verdict in the readable part of the output.
func (v verdict) print(answers int) {
	fmt.Printf("# reference check: %d distinct answers, %d mismatches\n", answers, v.mismatches)
	if v.guardErr != nil {
		fmt.Printf("# tier guard: BREACHED: %v\n", v.guardErr)
	} else {
		fmt.Printf("# tier guard: held\n")
	}
}

// hostStamp is the recorded-host block every output carries.
type hostStamp struct {
	Workload   string      `json:"workload"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Scale      float64     `json:"scale"`
	Seed       int64       `json:"seed"`
	Clients    int         `json:"clients"`
	SetupReps  int         `json:"setup_reps"`
	Server     serverStamp `json:"server_config"`
}

// serverStamp is the effective ServerConfig: the zero config the benchmark
// passes, resolved by the defaults documented on svc.ServerConfig. svc does not
// expose the resolved config, so these values mirror its defaults by hand
// rather than being read from the server; they go stale if those defaults
// change.
type serverStamp struct {
	Workers               int    `json:"workers"`
	QueueDepth            int    `json:"queue_depth"`
	JobWorkers            int    `json:"job_workers"`
	DefaultTimeout        string `json:"default_timeout"`
	ProgramCacheEntries   int    `json:"program_cache_entries"`
	TraceCacheEntries     int    `json:"trace_cache_entries"`
	PredecodeCacheEntries int    `json:"predecode_cache_entries"`
	Store                 bool   `json:"store"`
	Logger                string `json:"logger"`
}

func newHostStamp(o *options, w *benchWorkload) hostStamp {
	procs := runtime.GOMAXPROCS(0)
	return hostStamp{
		Workload:   w.name,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Scale:      scale,
		Seed:       o.seed,
		Clients:    clients,
		SetupReps:  w.tier.setupReps(),
		Server: serverStamp{
			Workers:               procs,
			QueueDepth:            2 * procs,
			JobWorkers:            procs,
			DefaultTimeout:        "none",
			ProgramCacheEntries:   32,
			TraceCacheEntries:     16,
			PredecodeCacheEntries: 32,
			Store:                 w.tier.usesStore(),
			Logger:                "text, discarded",
		},
	}
}
