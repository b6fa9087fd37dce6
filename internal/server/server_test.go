package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/gosrc"
	"rasc/internal/obs"
)

const srvASrc = `package p

import "sync"

var mu sync.Mutex

func Top() { mid() }

func mid() { leaf() }

func leaf() {
	mu.Lock()
	mu.Lock() // BUG
}
`

const srvBSrc = `package p

import "sync"

var mu2 sync.Mutex

func Other() { ok() }

func ok() {
	mu2.Lock()
	mu2.Unlock()
}
`

// newTestServer stands a full daemon stack up: engine, handler with
// telemetry middleware, httptest server, client.
func newTestServer(t *testing.T, onShutdown func()) (*Client, *analysis.Engine, *httptest.Server) {
	t.Helper()
	registry := obs.NewRegistry()
	engine := analysis.NewEngine(analysis.EngineConfig{Metrics: registry})
	h := NewHandler(HandlerConfig{Engine: engine, Registry: registry, OnShutdown: onShutdown})
	ts := httptest.NewServer(h.Root())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), engine, ts
}

// newTelemetryServer is newTestServer with the full telemetry stack on:
// flight recorder (persisting to a temp dir past slowUS) and a JSON
// access log captured in the returned buffer.
func newTelemetryServer(t *testing.T, slowUS int64, dir string, logBuf *bytes.Buffer) (*Client, *httptest.Server) {
	t.Helper()
	registry := obs.NewRegistry()
	flight := obs.NewFlight(obs.FlightConfig{SlowUS: slowUS, Dir: dir, Metrics: registry})
	engine := analysis.NewEngine(analysis.EngineConfig{Metrics: registry, Flight: flight})
	var log *obs.Logger
	if logBuf != nil {
		log = obs.NewLogger(logBuf, obs.LevelInfo)
	}
	h := NewHandler(HandlerConfig{
		Engine:   engine,
		Registry: registry,
		Flight:   flight,
		Log:      log,
	})
	ts := httptest.NewServer(h.Root())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), ts
}

// oneShot is the reference: a fresh in-process Analyze over the same
// sources, cache block stripped like the CLI strips it.
func oneShot(t *testing.T, files []gosrc.File, explain bool) *analysis.Report {
	t.Helper()
	pkg, err := analysis.LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Analyze(pkg, analysis.Config{Explain: explain})
	if err != nil {
		t.Fatal(err)
	}
	rep.Cache = nil
	return rep
}

func sarifOf(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.SARIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func jsonOf(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServerRoundTripMatchesOneShot drives the full client flow —
// manifest diff, minimal delta, check — through HTTP and asserts the
// rendered report is byte-identical to a fresh one-shot run, across an
// edit.
func TestServerRoundTripMatchesOneShot(t *testing.T) {
	client, _, _ := newTestServer(t, nil)

	files := []gosrc.File{{Name: "a.go", Src: srvASrc}, {Name: "b.go", Src: srvBSrc}}
	rep, err := client.CheckFiles("default", files, CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot(t, files, false)
	if got, exp := sarifOf(t, rep), sarifOf(t, want); got != exp {
		t.Fatalf("server SARIF differs from one-shot:\nserver:\n%s\none-shot:\n%s", got, exp)
	}
	if got, exp := jsonOf(t, rep), jsonOf(t, want); got != exp {
		t.Fatalf("server JSON differs from one-shot")
	}

	// The manifest now covers both files; an identical re-check pushes
	// nothing.
	m, err := client.Manifest("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 2 {
		t.Fatalf("manifest = %v, want 2 files", m.Files)
	}
	if up, rm := Delta(files, m.Files); len(up) != 0 || len(rm) != 0 {
		t.Fatalf("unchanged set diffs to %d upserts / %d removes", len(up), len(rm))
	}

	// Edit one file: the delta is exactly that file, and the warm
	// re-check matches a fresh one-shot over the edited set.
	files[0].Src = strings.Replace(srvASrc, "mu.Lock() // BUG", "mu.Unlock()", 1)
	if up, _ := Delta(files, m.Files); len(up) != 1 || up[0].Name != "a.go" {
		t.Fatalf("edit delta = %+v, want just a.go", up)
	}
	rep, err = client.CheckFiles("default", files, CheckRequest{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	want = oneShot(t, files, true)
	if got, exp := sarifOf(t, rep), sarifOf(t, want); got != exp {
		t.Fatalf("post-edit server SARIF differs from one-shot:\nserver:\n%s\none-shot:\n%s", got, exp)
	}

	// Dropping a file flows through as a remove.
	files = files[:1]
	m, err = client.Manifest("default")
	if err != nil {
		t.Fatal(err)
	}
	if _, rm := Delta(files, m.Files); len(rm) != 1 || rm[0] != "b.go" {
		t.Fatalf("remove delta = %v, want [b.go]", rm)
	}
	rep, err = client.CheckFiles("default", files, CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := jsonOf(t, rep), jsonOf(t, oneShot(t, files, false)); got != exp {
		t.Fatalf("post-remove server JSON differs from one-shot")
	}
}

// The manifest describes the files the engine holds, not the files
// clients once pushed: after a program is evicted under the memory
// budget, its manifest is empty, so CheckFiles pushes the whole set
// again instead of a delta against files the engine dropped.
func TestServerManifestAfterEviction(t *testing.T) {
	registry := obs.NewRegistry()
	engine := analysis.NewEngine(analysis.EngineConfig{Metrics: registry, MemoryBudget: 1})
	ts := httptest.NewServer(NewHandler(HandlerConfig{Engine: engine, Registry: registry}).Root())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	p1 := []gosrc.File{{Name: "a.go", Src: srvASrc}, {Name: "b.go", Src: srvBSrc}}
	p2 := []gosrc.File{{Name: "c.go", Src: srvBSrc}}
	for _, push := range []struct {
		program string
		files   []gosrc.File
	}{{"p1", p1}, {"p2", p2}} {
		if _, err := client.CheckFiles(push.program, push.files, CheckRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if ev := engine.Stats().Evictions; ev != 1 {
		t.Fatalf("%d evictions, want 1 (p1, under a 1-byte budget)", ev)
	}
	m, err := client.Manifest("p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 0 {
		t.Errorf("evicted program's manifest = %v, want empty", m.Files)
	}

	p1[1].Src = strings.Replace(srvBSrc, "mu2.Unlock()", "mu2.Lock()", 1)
	rep, err := client.CheckFiles("p1", p1, CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot(t, p1, false)
	if rep.Files != 2 {
		t.Errorf("server report covers %d file(s), want 2", rep.Files)
	}
	if got, exp := jsonOf(t, rep), jsonOf(t, want); got != exp {
		t.Fatalf("server JSON after eviction differs from one-shot:\nserver:\n%s\none-shot:\n%s", got, exp)
	}
	if m, err = client.Manifest("p1"); err != nil || len(m.Files) != 2 {
		t.Fatalf("manifest after the re-push = %v (%v), want 2 files", m.Files, err)
	}
}

// TestServerConcurrentClients hits one daemon with goroutines mixing
// check, explain, metrics, health and list traffic. A -race exercise
// for the handler + engine stack; also asserts response stability and
// the request accounting.
func TestServerConcurrentClients(t *testing.T) {
	client, engine, ts := newTestServer(t, nil)

	files := []gosrc.File{{Name: "a.go", Src: srvASrc}, {Name: "b.go", Src: srvBSrc}}
	seed, err := client.CheckFiles("default", files, CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := jsonOf(t, seed)

	const workers = 12
	const iters = 3
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0:
					rep, err := c.Check(CheckRequest{})
					if err != nil {
						errc <- err
						continue
					}
					if got := jsonOf(t, rep); got != wantJSON {
						t.Errorf("worker %d: report diverged", w)
					}
				case 1:
					if _, err := c.Check(CheckRequest{Explain: true}); err != nil {
						errc <- err
					}
				case 2:
					if _, err := c.CheckFiles("alt", files, CheckRequest{}); err != nil {
						errc <- err
					}
				case 3:
					if _, err := c.Metrics(); err != nil {
						errc <- err
					}
					if _, err := c.Health(); err != nil {
						errc <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := engine.Stats()
	if st.Errors != 0 {
		t.Fatalf("engine errors = %d", st.Errors)
	}
	// 1 seed + every check-issuing worker's iterations.
	checkWorkers := 0
	for w := 0; w < workers; w++ {
		if w%4 != 3 {
			checkWorkers++
		}
	}
	if want := int64(1 + checkWorkers*iters); st.Requests != want {
		t.Fatalf("requests = %d, want %d", st.Requests, want)
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine.Requests != st.Requests {
		t.Fatalf("metrics engine stats = %+v, engine says %+v", m.Engine, st)
	}
	if len(m.Programs) != 2 {
		t.Fatalf("programs = %+v, want default and alt", m.Programs)
	}
	if m.P99MS < m.P50MS {
		t.Fatalf("p99 %d < p50 %d", m.P99MS, m.P50MS)
	}
}

// TestServerErrorPaths: bad methods, bad bodies, engine errors and the
// disabled shutdown endpoint all surface as JSON errors with the right
// status.
func TestServerErrorPaths(t *testing.T) {
	client, _, ts := newTestServer(t, nil)

	// Engine error: a file set that fails to parse.
	_, err := client.Check(CheckRequest{
		Upserts: []FilePayload{{Name: "x.go", Src: "package p\nfunc broken( {"}},
	})
	if err == nil || !strings.Contains(err.Error(), "server:") {
		t.Fatalf("parse error not surfaced: %v", err)
	}

	// Empty program.
	if _, err := client.Check(CheckRequest{Program: "empty"}); err == nil {
		t.Fatal("check of a fileless program succeeded")
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/check = %d", resp.StatusCode)
	}

	// Undecodable bodies: a truncated object, and a second object after
	// the request.
	for _, body := range []string{"{", `{"program":"p"}{"reset":true}`} {
		resp, err = http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %s = %d", body, resp.StatusCode)
		}
	}

	// A body over the bound, streamed so that the client never holds it,
	// is refused before it is decoded.
	huge := io.MultiReader(strings.NewReader(`{"program":"`),
		io.LimitReader(fillReader('a'), maxCheckBody), strings.NewReader(`"}`))
	resp, err = http.Post(ts.URL+"/v1/check", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d", resp.StatusCode)
	}

	// Shutdown disabled (nil onShutdown).
	if err := client.Shutdown(); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("disabled shutdown: %v", err)
	}
}

// wireGolden is the JSON of a CheckRequest with every field set. Clients
// send this form, so a change to it breaks them.
const wireGolden = `{"program":"p","upserts":[{"name":"a.go","src":"package p\n"}],"removes":["b.go"],"checkers":["doublelock","fileleak"],"entries":["Top"],"explain":true}`

// The wire form of a check request is pinned: every field marshals
// under its JSON name, and the golden bytes decode back to the same
// request.
func TestCheckRequestWireGolden(t *testing.T) {
	req := CheckRequest{
		Program:  "p",
		Upserts:  []FilePayload{{Name: "a.go", Src: "package p\n"}},
		Removes:  []string{"b.go"},
		Checkers: []string{"doublelock", "fileleak"},
		Entries:  []string{"Top"},
		Explain:  true,
	}
	got, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wireGolden {
		t.Errorf("wire form changed:\ngot:  %s\nwant: %s", got, wireGolden)
	}
	var back CheckRequest
	if err := json.Unmarshal([]byte(wireGolden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Errorf("golden decodes to %+v, want %+v", back, req)
	}
}

// unknownFieldBodies are /v1/check bodies that name a field the request
// type lacks — a retired option, a server-set field, a misspelling, an
// unknown key in a file — each with the key the 400 must name.
var unknownFieldBodies = []struct{ key, json string }{
	{"reset", `{"upserts":[{"name":"c.go","src":"package p\nfunc C() {}\n"}],"reset":true}`},
	{"keep_suppressed", `{"upserts":[{"name":"c.go","src":"package p\nfunc C() {}\n"}],"keep_suppressed":true}`},
	{"trace_id", `{"upserts":[{"name":"c.go","src":"package p\nfunc C() {}\n"}],"trace_id":"0123456789abcdef"}`},
	{"checker", `{"upserts":[{"name":"c.go","src":"package p\nfunc C() {}\n"}],"checker":["doublelock"]}`},
	{"mode", `{"upserts":[{"name":"c.go","src":"package p\nfunc C() {}\n","mode":420}]}`},
}

// A check body that names an unknown field is answered 400 with the key
// in the error, and the resident program keeps its file set: the
// request is refused, not run as if the field were absent.
func TestServerRejectsUnknownFields(t *testing.T) {
	client, engine, ts := newTestServer(t, nil)
	files := []gosrc.File{{Name: "a.go", Src: srvASrc}, {Name: "b.go", Src: srvBSrc}}
	if _, err := client.CheckFiles("default", files, CheckRequest{}); err != nil {
		t.Fatal(err)
	}
	want := HashFiles(files)
	for _, body := range unknownFieldBodies {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body.json))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: undecodable answer: %v", body.key, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, `"`+body.key+`"`) {
			t.Errorf("%s: status %d, error %q; want 400 naming the key", body.key, resp.StatusCode, er.Error)
		}
		if got := engine.Manifest("default"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resident files became %v", body.key, got)
		}
	}
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (b fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestServerShutdownOnce: the shutdown endpoint fires its callback
// exactly once, however many clients ask.
func TestServerShutdownOnce(t *testing.T) {
	fired := make(chan struct{}, 2)
	client, _, _ := newTestServer(t, func() { fired <- struct{}{} })
	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-fired
	select {
	case <-fired:
		t.Fatal("shutdown callback fired twice")
	default:
	}
}

// TestServerListEndpoint: /v1/list serves the same text as gocheck
// -list.
func TestServerListEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/list")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := analysis.ListText(&want); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("/v1/list differs from ListText:\n%s\nvs\n%s", buf.String(), want.String())
	}
	if !strings.Contains(buf.String(), "doublelock") {
		t.Fatal("list output lacks doublelock")
	}
}

// TestServerMetricsSchema pins the wire shape dashboards read: engine
// stats keys, the latency quantiles, and the server.* registry metrics.
func TestServerMetricsSchema(t *testing.T) {
	client, _, ts := newTestServer(t, nil)
	files := []gosrc.File{{Name: "a.go", Src: srvASrc}}
	if _, err := client.CheckFiles("default", files, CheckRequest{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engine", "programs", "p50_ms", "p99_ms", "metrics"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics response lacks %q", key)
		}
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(m["metrics"], &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Counters["server.requests"]; !ok {
		t.Error("registry snapshot lacks server.requests counter")
	}
	if _, ok := snap.Histograms["server.request_ms"]; !ok {
		t.Error("registry snapshot lacks server.request_ms histogram")
	}
}

// TestServerTelemetryByteIdentity: with the flight recorder and
// request tracing on, rendered findings are byte-identical to a plain
// server and to a one-shot run, every response carries a trace ID, and
// the flight recorder serves a check's span tree by that ID.
func TestServerTelemetryByteIdentity(t *testing.T) {
	var logBuf bytes.Buffer
	client, ts := newTelemetryServer(t, 0, "", &logBuf)
	files := []gosrc.File{{Name: "a.go", Src: srvASrc}, {Name: "b.go", Src: srvBSrc}}

	rep, err := client.CheckFiles("default", files, CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot(t, files, false)
	if got, exp := sarifOf(t, rep), sarifOf(t, want); got != exp {
		t.Fatalf("telemetry-on SARIF differs from one-shot:\n%s\nvs\n%s", got, exp)
	}
	if got, exp := jsonOf(t, rep), jsonOf(t, want); got != exp {
		t.Fatal("telemetry-on JSON differs from one-shot")
	}
	if len(rep.TraceID) != 16 {
		t.Fatalf("report trace id = %q", rep.TraceID)
	}

	// The response header carries the same trace ID the report does.
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(TraceHeader); len(id) != 16 {
		t.Fatalf("health response %s = %q", TraceHeader, id)
	}

	// A re-check's span tree is served by its trace ID, and the report
	// still renders identically.
	again, err := client.Check(CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/debug/flight?trace=" + again.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("flight trace %s = %d, %v", again.TraceID, resp.StatusCode, err)
	}
	if err := obs.ValidateTraceJSON(trace); err != nil {
		t.Fatalf("request trace invalid: %v", err)
	}
	if !strings.Contains(string(trace), "request:default") {
		t.Fatal("request trace lacks the request root span")
	}
	if got, exp := jsonOf(t, again), jsonOf(t, want); got != exp {
		t.Fatal("re-check JSON differs from one-shot")
	}

	// Access log: one JSON line per request, with program and memo
	// accounting on check lines and the trace ID on every line.
	var checkLine map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line is not JSON: %s", line)
		}
		if m["trace_id"] == nil {
			t.Fatalf("access log line lacks trace_id: %s", line)
		}
		if m["path"] == "/v1/check" && checkLine == nil {
			checkLine = m
		}
	}
	if checkLine == nil {
		t.Fatal("no /v1/check access log line")
	}
	for _, key := range []string{"method", "status", "dur_ms", "program", "memo_hits", "memo_misses"} {
		if _, ok := checkLine[key]; !ok {
			t.Fatalf("check log line lacks %q: %v", key, checkLine)
		}
	}
	if checkLine["program"] != "default" {
		t.Fatalf("check log program = %v", checkLine["program"])
	}
}

// TestServerFlightEndpoint: /v1/debug/flight dumps retained request
// traces as valid Chrome trace JSON, narrows by trace ID, lists
// metadata, and 404s on unknown traces; a breached latency threshold
// persists the offending trace to disk.
func TestServerFlightEndpoint(t *testing.T) {
	dir := t.TempDir()
	// SlowUS=1: every real request breaches the threshold and persists.
	client, ts := newTelemetryServer(t, 1, dir, nil)
	files := []gosrc.File{{Name: "a.go", Src: srvASrc}}
	rep, err := client.CheckFiles("default", files, CheckRequest{})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	status, body := get("/v1/debug/flight")
	if status != http.StatusOK {
		t.Fatalf("flight dump = %d: %s", status, body)
	}
	if err := obs.ValidateTraceJSON(body); err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	if !strings.Contains(string(body), "request:default") {
		t.Fatal("flight dump lacks request spans")
	}

	status, body = get("/v1/debug/flight?trace=" + rep.TraceID)
	if status != http.StatusOK || !strings.Contains(string(body), "request:default") {
		t.Fatalf("single-trace dump = %d: %s", status, body)
	}
	if status, _ := get("/v1/debug/flight?trace=nosuchtrace"); status != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", status)
	}

	status, body = get("/v1/debug/flight?list=1")
	if status != http.StatusOK {
		t.Fatalf("flight list = %d", status)
	}
	var entries []obs.FlightEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.TraceID == rep.TraceID {
			found = true
			if !e.Persisted {
				t.Fatalf("slow request not marked persisted: %+v", e)
			}
			if e.MemoMisses == 0 {
				t.Fatalf("cold request shows no memo misses: %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("flight list %v lacks trace %s", entries, rep.TraceID)
	}

	// The breach persisted the trace to disk, valid and inspectable.
	data, err := os.ReadFile(filepath.Join(dir, "flight-"+rep.TraceID+".json"))
	if err != nil {
		t.Fatalf("slow trace not persisted: %v", err)
	}
	if err := obs.ValidateTraceJSON(data); err != nil {
		t.Fatalf("persisted trace invalid: %v", err)
	}
}

// TestServerHealthSLO: health reports ok with build info on an idle
// daemon, stays ok while a window holds fewer than sloMinRequests
// requests, and degrades with reasons once the error-rate threshold is
// breached.
func TestServerHealthSLO(t *testing.T) {
	client, _ := newTelemetryServer(t, 0, "", nil)

	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Status != "ok" || h.Version != Version || h.GoVersion == "" {
		t.Fatalf("idle health = %+v", h)
	}
	if _, ok := h.Windows["1m"]; !ok {
		t.Fatalf("health lacks 1m window: %+v", h)
	}

	// Failing checks (a fileless program) breach the 5% error SLO, but
	// only once the window holds sloMinRequests of them.
	for i := 1; i <= sloMinRequests; i++ {
		if _, err := client.Check(CheckRequest{Program: "empty"}); err == nil {
			t.Fatal("fileless check succeeded")
		}
		if h, err = client.Health(); err != nil {
			t.Fatal(err)
		}
		if i < sloMinRequests && !h.OK {
			t.Fatalf("health after %d failed request(s) = %+v, want ok", i, h)
		}
	}
	if h.OK || h.Status != "degraded" || len(h.Reasons) == 0 {
		t.Fatalf("post-error health = %+v, want degraded with reasons", h)
	}
	if !strings.Contains(strings.Join(h.Reasons, " "), "error rate") {
		t.Fatalf("reasons = %v", h.Reasons)
	}
}

// TestServerPrometheusEndpoint: ?format=prometheus serves valid text
// exposition mapped from the live registry.
func TestServerPrometheusEndpoint(t *testing.T) {
	client, _, ts := newTestServer(t, nil)
	files := []gosrc.File{{Name: "a.go", Src: srvASrc}}
	if _, err := client.CheckFiles("default", files, CheckRequest{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"# TYPE server_requests counter",
		"server_requests 1",
		"# TYPE server_request_ms histogram",
		`server_request_ms_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestServerDebugVars: the plain-text summary names the daemon, its
// windows and the engine counters.
func TestServerDebugVars(t *testing.T) {
	client, ts := newTelemetryServer(t, 0, "", nil)
	files := []gosrc.File{{Name: "a.go", Src: srvASrc}}
	if _, err := client.CheckFiles("default", files, CheckRequest{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"gocheckd " + Version, "uptime:", "engine: requests=1", "window 1m:", "window 5m:", "flight: recorded=1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("vars missing %q:\n%s", want, buf.String())
		}
	}
}

// flakyTransport fails the first N round trips with connection-refused
// before delegating to the real transport.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	attempts int
	inner    http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.attempts++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
	}
	return f.inner.RoundTrip(r)
}

// TestClientRetryOnConnRefused: one connection-refused failure is
// retried after retryBackoff and succeeds; with the one retry exhausted
// the refusal surfaces.
func TestClientRetryOnConnRefused(t *testing.T) {
	_, _, ts := newTestServer(t, nil)

	c := NewClient(ts.URL)
	ft := &flakyTransport{failures: 1, inner: http.DefaultTransport}
	c.http.Transport = ft
	if _, err := c.Health(); err != nil {
		t.Fatalf("health with one refusal and one retry: %v", err)
	}
	if ft.attempts != 2 {
		t.Fatalf("attempts = %d, want 2", ft.attempts)
	}

	// POST bodies must survive the retry (fresh reader per attempt): the
	// refused first attempt is the check itself, and the resent body
	// still carries the file with the double lock.
	ft = &flakyTransport{failures: 1, inner: http.DefaultTransport}
	c.http.Transport = ft
	rep, err := c.Check(CheckRequest{Upserts: []FilePayload{{Name: "a.go", Src: srvASrc}}})
	if err != nil {
		t.Fatalf("check with one refusal and one retry: %v", err)
	}
	if ft.attempts != 2 || len(rep.Diagnostics) == 0 {
		t.Fatalf("check attempts = %d, diagnostics = %d; want 2 attempts and the double lock", ft.attempts, len(rep.Diagnostics))
	}

	// Too many refusals: the error surfaces as connection refused after
	// one retry.
	ft = &flakyTransport{failures: 5, inner: http.DefaultTransport}
	c.http.Transport = ft
	if _, err := c.Health(); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("exhausted retries: %v", err)
	}
	if ft.attempts != 2 {
		t.Fatalf("attempts with retries exhausted = %d, want 2", ft.attempts)
	}

	// Retries only cover connection-refused, not HTTP errors — and HTTP
	// errors carry the trace ID for log correlation.
	c.http.Transport = http.DefaultTransport
	_, err = c.Check(CheckRequest{Program: "empty"})
	if err == nil || !strings.Contains(err.Error(), "(trace ") {
		t.Fatalf("HTTP error lacks trace id: %v", err)
	}

	if got := NewClientWith(ts.URL, ClientOptions{Timeout: 7 * time.Second}); got.http.Timeout != 7*time.Second {
		t.Fatalf("timeout option not applied: %v", got.http.Timeout)
	}
}
