//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bsisa/internal/svc"
)

// daemonEnv, set to 1, makes this test binary run as the daemon: TestMain
// then runs main instead of the tests, so the tests start the real bsimd as
// a separate process without building it first.
const daemonEnv = "BSIMD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// client bounds every request, so a hung daemon fails the test instead of
// stalling it.
var client = &http.Client{Timeout: time.Minute}

// daemon is one bsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port, from the "bsimd listening" line
	eof  chan struct{} // closed once stderr is drained

	mu  sync.Mutex
	log strings.Builder // everything written to stderr
}

// startDaemon starts bsimd on an ephemeral port over storeDir, logging JSON,
// and waits for it to log the address it bound. Cleanup kills the process if
// the test has not stopped it.
func startDaemon(t *testing.T, storeDir string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-store", storeDir, "-log", "json")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, eof: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			<-d.eof
			_ = cmd.Wait()
		}
	})

	addr := make(chan string, 1)
	go func() {
		defer close(d.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "bsimd listening" {
				select {
				case addr <- rec.Addr:
				default:
				}
			}
		}
		// Keep draining past a line too long to scan, so the daemon never
		// blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.eof:
		t.Fatalf("bsimd exited before listening:\n%s", d.logs())
	case <-time.After(time.Minute):
		t.Fatalf("bsimd did not log its address:\n%s", d.logs())
	}
	return d
}

func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM and requires the daemon to drain and exit 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.eof:
	case <-time.After(time.Minute):
		t.Fatalf("bsimd did not exit on SIGTERM:\n%s", d.logs())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("bsimd exited with %v on SIGTERM:\n%s", err, d.logs())
	}
	if !strings.Contains(d.logs(), `"msg":"drained, exiting"`) {
		t.Fatalf("bsimd exited without draining:\n%s", d.logs())
	}
}

func (d *daemon) post(t *testing.T, req *svc.SimRequest) *svc.SimResponse {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := client.Post(d.base+"/v1/sim", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp svc.SimResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, resp.Error)
	}
	return &resp
}

// metrics scrapes /metrics into samples keyed by series, labels included.
func (d *daemon) metrics(t *testing.T) map[string]float64 {
	t.Helper()
	httpResp, err := client.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		samples[series] = v
	}
	return samples
}

// requireMetric requires a series to be present with the given value.
func requireMetric(t *testing.T, m map[string]float64, series string, want float64) {
	t.Helper()
	if got, ok := m[series]; !ok || got != want {
		t.Fatalf("%s = %g (present %v), want %g", series, got, ok, want)
	}
}

// TestDaemonRestartServesFromStore runs bsimd twice, as separate processes
// on one -store directory, with Figure 6's question for compress. The first
// process compiles the program, records the trace and writes both through;
// the second must answer field for field the same from the mmapped store
// file without compiling or recording. Both must drain and exit 0 on
// SIGTERM.
func TestDaemonRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	req := &svc.SimRequest{
		Version: svc.SchemaVersion,
		Program: svc.ProgramSpec{Workload: "compress", Scale: 0.05, ISA: "conv"},
		Sweep:   &svc.SweepSpec{ICacheSizes: []int{0, 8 << 10, 16 << 10, 32 << 10}},
	}

	a := startDaemon(t, dir)
	cold := a.post(t, req)
	if cold.ArtifactCache == nil || cold.ArtifactCache.Store {
		t.Fatalf("first process served a stored trace: %+v", cold.ArtifactCache)
	}
	first := a.metrics(t)
	requireMetric(t, first, "bsimd_trace_records_total", 1)
	requireMetric(t, first, `bsimd_stage_seconds_count{stage="compile"}`, 1)
	a.stop(t)

	b := startDaemon(t, dir)
	warm := b.post(t, req)
	if warm.ArtifactCache == nil || !warm.ArtifactCache.Store || !warm.ArtifactCache.Mmap {
		t.Fatalf("second process not served from the mmapped store: %+v", warm.ArtifactCache)
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatalf("second process answers differently:\nfirst:  %+v\nsecond: %+v", cold.Results, warm.Results)
	}
	m := b.metrics(t)
	requireMetric(t, m, "bsimd_trace_records_total", 0)
	requireMetric(t, m, `bsimd_stage_seconds_count{stage="compile"}`, 0)
	requireMetric(t, m, `bsimd_store_events_total{event="hit"}`, 1)
	requireMetric(t, m, `bsimd_store_events_total{event="miss"}`, 0)
	requireMetric(t, m, `bsimd_store_events_total{event="corrupt"}`, 0)
	if maps := m[`bsimd_store_mmap_events_total{event="map"}`]; maps < 1 {
		t.Fatalf("second process mapped %g store files, want >= 1", maps)
	}
	b.stop(t)
}
