package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clients is the closed-loop client count: one per core of the two-core
// host the benchmark was sized on.
const clients = 2

// timedRun is what the timed phase measured.
type timedRun struct {
	setups  []time.Duration
	samples []sample
	passes  []passStat
	wall    time.Duration // sum of pass wall times
	alloc   uint64        // heap bytes allocated over the passes
	delta   promSample    // /metrics deltas summed over the passes
	rssMB   float64       // VmHWM over the first pass
}

// passStat is one timed pass.
type passStat struct {
	wall, cpu time.Duration // wall time, and process user+sys CPU time
	completed int           // requests answered with a decodable response
	ops       int64         // simulated operations over every answer
}

// runTimed runs the workload's set-up and then closed-loop passes until the
// run has measured for o.seconds and collected enough samples for a p90.
func runTimed(w *benchWorkload, o *options, scratch string) (*timedRun, error) {
	reqs, err := w.requests()
	if err != nil {
		return nil, err
	}
	st := &stage{w: w, scratch: scratch, client: newClient(clients)}
	if w.preload != nil {
		if st.preload, err = w.preload(); err != nil {
			return nil, err
		}
	}
	defer st.teardown()

	run := &timedRun{delta: promSample{}}
	for i := 0; i < w.tier.setupReps(); i++ {
		d, err := st.setup()
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, d)
	}
	for pass := 0; pass == 0 || run.wall < o.seconds || !supported(len(run.samples), 900); pass++ {
		if err := st.beforePass(pass); err != nil {
			return nil, err
		}
		// Every pass starts from a collected heap handed back to the OS. The
		// RSS high-water mark restarts with the first pass.
		debug.FreeOSMemory()
		if pass == 0 {
			resetPeakRSS()
		}
		before, err := st.srv.scrape(st.client)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		cpu0 := cpuTime()
		runtime.ReadMemStats(&m0)
		samples, wall := runPass(st.client, st.srv.ts.URL, reqs, passOrder(o.seed, pass, len(reqs)), clients)
		runtime.ReadMemStats(&m1)
		cpu1 := cpuTime()
		after, err := st.srv.scrape(st.client)
		if err != nil {
			return nil, err
		}
		ps := passStat{wall: wall, cpu: cpu1 - cpu0}
		for i := range samples {
			if samples[i].decode() == nil {
				ps.completed++
				for _, r := range samples[i].resp.Results {
					ps.ops += r.Ops
				}
			}
		}
		run.samples = append(run.samples, samples...)
		run.passes = append(run.passes, ps)
		run.wall += wall
		run.alloc += m1.TotalAlloc - m0.TotalAlloc
		run.delta.add(sub(after, before))
		if pass == 0 {
			run.rssMB = peakRSSMB()
		}
	}
	return run, nil
}

// timedMetrics turns a timed run into the end-to-end metrics. failed is the
// number of samples that failed. Latency percentiles pool every request;
// throughput and CPU per request are medians over passes, so one pass that
// met a slow spell on the host does not move them.
func timedMetrics(run *timedRun, failed int) *metricSet {
	var durs []time.Duration
	ipcByAnswer := map[string]float64{} // request label/result index -> IPC
	completed := 0
	for i := range run.samples {
		s := &run.samples[i]
		durs = append(durs, s.dur)
		if s.resp == nil {
			continue
		}
		completed++
		for j, r := range s.resp.Results {
			ipcByAnswer[fmt.Sprintf("%s/%d", s.req.label, j)] = r.IPC
		}
	}
	// The mean runs over distinct answers, summed in sorted order, so it does
	// not depend on how many passes the run fitted in or on the request order.
	ipcs := make([]float64, 0, len(ipcByAnswer))
	for _, v := range ipcByAnswer {
		ipcs = append(ipcs, v)
	}
	sort.Float64s(ipcs)
	ipcSum := 0.0
	for _, v := range ipcs {
		ipcSum += v
	}
	sorted := sortedDurations(durs)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var setups, reqRate, opRate, cpuPerReq []float64
	for _, d := range run.setups {
		setups = append(setups, d.Seconds())
	}
	for _, p := range run.passes {
		reqRate = append(reqRate, ratio(float64(p.completed), p.wall.Seconds()))
		opRate = append(opRate, ratio(float64(p.ops)/1e6, p.wall.Seconds()))
		cpuPerReq = append(cpuPerReq, ratio(ms(p.cpu), float64(p.completed)))
	}
	m := &metricSet{}
	m.set("setup_s", median(setups), "s")
	m.set("req_p50_ms", ms(percentile(sorted, 500)), "ms")
	m.set("req_p90_ms", ms(percentile(sorted, 900)), "ms")
	m.set("req_per_s", median(reqRate), "1/s")
	m.set("sim_mops_per_s", median(opRate), "Mop/s")
	m.set("cpu_ms_per_req", median(cpuPerReq), "ms")
	m.set("alloc_mb_per_req", ratio(float64(run.alloc)/1e6, float64(completed)), "MB")
	m.set("peak_rss_mb", run.rssMB, "MB")
	m.set("sim_ipc_mean", ratio(ipcSum, float64(len(ipcs))), "IPC")
	m.set("error_rate", ratio(float64(failed), float64(len(run.samples))), "ratio")
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from the
// current RSS (Linux; elsewhere VmHWM is unavailable anyway).
//
// peak_rss_mb covers the first timed pass only: svc.Server.Close keeps the
// mappings its trace cache holds, so a process that starts a fresh server
// per pass (serve-restart) would count every earlier server's mapped traces,
// and the figure would grow with the number of passes a run fits in.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the peak then covers set-up too
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM, which
// counts mapped trace pages too) in MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kib * 1024 / 1e6
		}
	}
	return 0
}

// metricSet is an ordered set of named metrics with units.
type metricSet struct {
	names []string
	vals  map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metricValue{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

// print writes one "name value unit" line per metric.
func (m *metricSet) print() {
	for _, name := range m.names {
		v := m.vals[name]
		fmt.Printf("%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
}
