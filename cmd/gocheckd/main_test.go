package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/obs"
	"rasc/internal/server"
)

// internalTree is this repository's own internal/... tree, the corpus
// the daemon serves in TestDaemonOverInternal.
const internalTree = "../../internal/..."

// TestMain makes the test binary double as gocheckd: started with
// GOCHECKD_TEST_MAIN=1, it runs main on its arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("GOCHECKD_TEST_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// daemon is a gocheckd process started from the test binary.
type daemon struct {
	addr string // from the starting line; "" if the process never started
	done chan struct{}
	err  error // the process's exit, valid once done is closed

	mu    sync.Mutex
	lines []string // stderr, one log line each
}

// startDaemon runs gocheckd with args and returns once it has logged its
// starting line or exited, whichever comes first. The process is killed
// when the test ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GOCHECKD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{done: make(chan struct{})}
	started := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
			var line struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "starting" {
				started <- line.Addr
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})
	select {
	case d.addr = <-started:
	case <-d.done:
	case <-time.After(time.Minute):
		t.Fatalf("gocheckd neither started nor exited within a minute:\n%s", d.log())
	}
	return d
}

// exitCode waits up to a minute for the process to exit and returns its
// exit code.
func (d *daemon) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		t.Fatalf("gocheckd still running after a minute:\n%s", d.log())
	}
	var exit *exec.ExitError
	if errors.As(d.err, &exit) {
		return exit.ExitCode()
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	return 0
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// get fetches one daemon endpoint and fails the test on any status but
// 200.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// hasLine reports whether a line of text starts with prefix.
func hasLine(text []byte, prefix string) bool {
	return bytes.HasPrefix(text, []byte(prefix)) || bytes.Contains(text, []byte("\n"+prefix))
}

// -slow-ms promises persisted slow-request traces, which need a
// directory: without -flight-dir the daemon refuses to start.
func TestSlowMSRequiresFlightDir(t *testing.T) {
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-slow-ms", "1")
	if d.addr != "" {
		t.Fatalf("gocheckd started without -flight-dir:\n%s", d.log())
	}
	if code := d.exitCode(t); code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, d.log())
	}
}

// One daemon with every telemetry feature on serves this repository's
// internal/... tree to four concurrent clients, each of which renders
// SARIF byte-identical to a one-shot run. Its metrics, Prometheus
// exposition, flight recorder, persisted slow traces, health and debug
// summary then describe that traffic, POST /v1/shutdown stops it with
// exit 0, and its log holds the lifecycle and access lines.
func TestDaemonOverInternal(t *testing.T) {
	flightDir := t.TempDir()
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-slow-ms", "1", "-flight-dir", flightDir, "-log-level", "debug")
	if d.addr == "" {
		t.Fatalf("gocheckd exited before serving:\n%s", d.log())
	}

	files, err := analysis.ReadPathFiles([]string{internalTree})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := analysis.Analyze(pkg, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.SARIF(&want); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	got := make([]bytes.Buffer, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := server.NewClient(d.addr).CheckFiles("smoke", files, server.CheckRequest{})
			if err == nil {
				err = rep.SARIF(&got[i])
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("client %d: %v\n%s", i, errs[i], d.log())
		}
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Errorf("client %d: served SARIF differs from the one-shot run", i)
		}
	}

	var metrics struct{ Metrics json.RawMessage }
	if err := json.Unmarshal(d.get(t, "/v1/metrics"), &metrics); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetricsJSON(metrics.Metrics); err != nil {
		t.Errorf("/v1/metrics: %v", err)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(metrics.Metrics, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"server.requests", "server.memo_hits", "server.resident_programs"} {
		_, counter := snap.Counters[name]
		_, gauge := snap.Gauges[name]
		if !counter && !gauge {
			t.Errorf("/v1/metrics lacks %s", name)
		}
	}
	for name, atLeast := range map[string]int64{"server.request_ms": clients, "server.relower_ms": 1} {
		h, ok := snap.Histograms[name]
		var sum int64
		for _, b := range h.Buckets {
			sum += b.Count
		}
		if !ok || h.Count < atLeast || sum != h.Count {
			t.Errorf("histogram %s: present %v, count %d (want >= %d), buckets sum to %d", name, ok, h.Count, atLeast, sum)
		}
	}

	prom := d.get(t, "/v1/metrics?format=prometheus")
	if err := obs.ValidatePrometheus(prom); err != nil {
		t.Errorf("Prometheus exposition: %v", err)
	}
	for _, prefix := range []string{"server_requests ", `server_request_ms_bucket{le="+Inf"}`} {
		if !hasLine(prom, prefix) {
			t.Errorf("Prometheus exposition has no %q line", prefix)
		}
	}

	if err := obs.ValidateTraceJSON(d.get(t, "/v1/debug/flight")); err != nil {
		t.Errorf("flight dump: %v", err)
	}
	var entries []obs.FlightEntry
	if err := json.Unmarshal(d.get(t, "/v1/debug/flight?list=1"), &entries); err != nil {
		t.Fatal(err)
	}
	traceID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	listed := false
	for _, e := range entries {
		listed = listed || traceID.MatchString(e.TraceID)
	}
	if !listed {
		t.Errorf("flight list has no entry with a 16-hex trace ID: %+v", entries)
	}
	persisted, err := filepath.Glob(filepath.Join(flightDir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) == 0 {
		t.Error("no slow-request trace persisted under -flight-dir")
	}
	for _, path := range persisted {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateTraceJSON(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}

	health, err := server.NewClient(d.addr).Health()
	if err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Status != "ok" || health.Version == "" || health.Windows["1m"].Requests < 1 {
		t.Errorf("health = %+v, want ok with a version and at least one request in 1m", health)
	}
	vars := d.get(t, "/v1/debug/vars")
	for _, prefix := range []string{"window 1m:", "flight: recorded="} {
		if !hasLine(vars, prefix) {
			t.Errorf("/v1/debug/vars has no %q line:\n%s", prefix, vars)
		}
	}

	if err := server.NewClient(d.addr).Shutdown(); err != nil {
		t.Fatal(err)
	}
	if code := d.exitCode(t); code != 0 {
		t.Fatalf("exit %d after /v1/shutdown, want 0:\n%s", code, d.log())
	}
	seen := map[string]bool{}
	for _, text := range strings.Split(d.log(), "\n") {
		var line struct {
			Msg     string
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(text), &line); err != nil {
			t.Errorf("log line is not JSON: %s", text)
			continue
		}
		if line.Msg == "request" && line.TraceID == "" {
			t.Errorf("request log line without a trace_id: %s", text)
		}
		seen[line.Msg] = true
	}
	for _, msg := range []string{"starting", "request", "stopped"} {
		if !seen[msg] {
			t.Errorf("log has no %q line:\n%s", msg, d.log())
		}
	}
}
