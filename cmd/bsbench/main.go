// bsbench regenerates every table and figure of the paper's evaluation, plus
// the ablations DESIGN.md defines, at the reproduction's reference scale.
//
// Usage:
//
//	bsbench [-scale F] [-exp name[,name...]] [-workers N] [-json] [-v]
//	        [-cpuprofile F] [-memprofile F]
//
// Experiments: table1 table2 fig3 fig4 fig5 fig6 fig7 headtohead mispredicts
// ablate-size ablate-faults ablate-superblock ablate-history ablate-minbias
// xsweep predsens tracestore summary all (default: the paper's tables and figures).
//
// -json additionally writes each experiment's results to BENCH_<name>.json
// using the same versioned svc.SimResponse envelope the bsimd service
// answers with — machine-readable columns/rows plus the wall time — so the
// perf trajectory is tracked across changes and one schema covers both
// offline and service output. Beside the envelope's fields each file carries
// a host object (CPU count, GOMAXPROCS, Go version, commit, scale), so a
// recorded wall time names the machine and tree it was measured on.
// -cpuprofile and -memprofile write pprof data covering the whole run
// (compilation, trace recording, and simulation), so performance work on
// the pipeline can be grounded in measured hot paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"bsisa/internal/harness"
	"bsisa/internal/stats"
	"bsisa/internal/svc"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload dynamic-size scale factor")
	exps := flag.String("exp", "paper", "comma-separated experiments, 'paper', or 'all'")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.Bool("json", false, "write each experiment to BENCH_<name>.json")
	verbose := flag.Bool("v", false, "progress output")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	opts := harness.Options{Scale: *scale, Workers: *workers}
	if *verbose {
		opts.Progress = os.Stderr
	}
	start := time.Now()
	h, err := harness.New(opts)
	if err != nil {
		fatal(err)
	}

	paper := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "headtohead"}
	extra := []string{"mispredicts", "ablate-size", "ablate-faults", "ablate-superblock",
		"ablate-history", "ablate-minbias", "ablate-tracecache", "ablate-ifconvert",
		"ablate-inline", "ablate-hotlayout", "ablate-multiblock",
		"xsweep", "predsens", "tracestore", "summary"}

	var names []string
	switch *exps {
	case "paper":
		names = paper
	case "all":
		names = append(append([]string{}, paper...), extra...)
	default:
		names = strings.Split(*exps, ",")
	}

	for _, name := range names {
		name = strings.TrimSpace(name)
		expStart := time.Now()
		tbl, err := run(h, name)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		wall := time.Since(expStart)
		fmt.Println(tbl.Render())
		if *jsonOut {
			if err := writeJSON(name, *scale, wall, tbl); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bsbench: done in %v (scale %.2f)\n", time.Since(start).Round(time.Millisecond), *scale)
}

// benchHost is the machine and tree a BENCH_<name>.json file was measured
// on.
type benchHost struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Scale      float64 `json:"scale"`
}

// benchArtifact is a BENCH_<name>.json file: the service envelope, and the
// host beside its fields.
type benchArtifact struct {
	svc.SimResponse
	Host benchHost `json:"host"`
}

// buildCommit is the VCS revision stamped into the binary (12 hex digits,
// with "-dirty" when the tree had uncommitted changes), or "unknown" when
// the build carries none, as under go run.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	rev = rev[:min(len(rev), 12)]
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// writeJSON records one experiment's table and wall time as
// BENCH_<name>.json in the current directory, in the same versioned
// envelope the bsimd service answers with, plus the host it ran on.
func writeJSON(name string, scale float64, wall time.Duration, tbl *stats.Table) error {
	out := benchArtifact{
		SimResponse: svc.SimResponse{
			Version:    svc.SchemaVersion,
			Experiment: name,
			Scale:      scale,
			WallMs:     wall.Milliseconds(),
			Table:      svc.TableOf(tbl),
		},
		Host: benchHost{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     buildCommit(),
			Scale:      scale,
		},
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+name+".json", append(data, '\n'), 0o644)
}

func run(h *harness.Harness, name string) (*stats.Table, error) {
	switch name {
	case "table1":
		return harness.Table1(), nil
	case "table2":
		return h.Table2()
	case "fig3":
		return h.Figure3()
	case "fig4":
		return h.Figure4()
	case "fig5":
		return h.Figure5()
	case "fig6":
		return h.Figure6()
	case "fig7":
		return h.Figure7()
	case "headtohead":
		return h.HeadToHead()
	case "mispredicts":
		return h.Mispredicts()
	case "ablate-size":
		return h.AblateBlockSize()
	case "ablate-faults":
		return h.AblateFaults()
	case "ablate-superblock":
		return h.AblateSuperblock()
	case "ablate-history":
		return h.AblateHistory()
	case "ablate-minbias":
		return h.AblateMinBias()
	case "ablate-tracecache":
		return h.AblateTraceCache()
	case "ablate-ifconvert":
		return h.AblateIfConvert()
	case "ablate-inline":
		return h.AblateInline()
	case "ablate-hotlayout":
		return h.AblateProfileLayout()
	case "ablate-multiblock":
		return h.AblateMultiBlock()
	case "xsweep":
		return h.XSweepSpeed()
	case "predsens":
		return h.PredictorSensitivity()
	case "tracestore":
		return h.TraceStoreSpeed()
	case "summary":
		return h.Summary()
	default:
		return nil, fmt.Errorf("unknown experiment (try table1 table2 fig3..fig7 headtohead mispredicts ablate-* xsweep predsens tracestore summary)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsbench:", err)
	os.Exit(1)
}
