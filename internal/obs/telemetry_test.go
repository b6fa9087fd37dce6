package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace id lengths %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Fatal("consecutive trace ids collide")
	}
}

func TestFlightWraparoundOrder(t *testing.T) {
	f := NewFlight(FlightConfig{Recent: 4, Slowest: -1})
	for i := 1; i <= 10; i++ {
		f.Record(FlightMeta{TraceID: fmt.Sprintf("t%02d", i), DurUS: int64(i)}, nil)
	}
	got := f.Entries()
	if len(got) != 4 {
		t.Fatalf("retained %d entries, want 4", len(got))
	}
	for i, e := range got {
		want := fmt.Sprintf("t%02d", 7+i)
		if e.TraceID != want || e.Seq != uint64(7+i) {
			t.Fatalf("entry %d = %s/seq %d, want %s/seq %d", i, e.TraceID, e.Seq, want, 7+i)
		}
	}
}

func TestFlightSlowestEviction(t *testing.T) {
	f := NewFlight(FlightConfig{Recent: 2, Slowest: 2})
	// Durations chosen so the slowest set must evict its fastest member.
	for i, dur := range []int64{50, 10, 90, 30, 70, 5} {
		f.Record(FlightMeta{TraceID: fmt.Sprintf("d%d", i), DurUS: dur}, nil)
	}
	// Ring holds the last two (70, 5); slowest-ever are 90 and 70.
	ids := map[string]bool{}
	for _, e := range f.Entries() {
		ids[e.TraceID] = true
	}
	for _, want := range []string{"d2", "d4", "d5"} { // 90, 70, 5
		if !ids[want] {
			t.Fatalf("retained set %v missing %s", ids, want)
		}
	}
	if ids["d0"] || ids["d1"] || ids["d3"] {
		t.Fatalf("retained set %v holds an evicted entry", ids)
	}
	st := f.Stats()
	if st.Recorded != 6 || st.Slowest != 2 || st.SlowestUS != 90 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlightSlowRequestPersists(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	f := NewFlight(FlightConfig{SlowUS: 1000, Dir: dir, Metrics: r})

	tr := NewTracer()
	tr.Start("request:fast").Finish()
	f.Record(FlightMeta{TraceID: "fastreq", DurUS: 500}, tr)

	tr = NewTracer()
	sp := tr.Start("request:slow")
	sp.Child("solve").Finish()
	sp.Finish()
	f.Record(FlightMeta{TraceID: "slowreq", Program: "p", DurUS: 5000}, tr)

	if _, err := os.Stat(filepath.Join(dir, "flight-fastreq.json")); !os.IsNotExist(err) {
		t.Fatal("fast request was persisted")
	}
	data, err := os.ReadFile(filepath.Join(dir, "flight-slowreq.json"))
	if err != nil {
		t.Fatalf("slow trace not persisted: %v", err)
	}
	if err := ValidateTraceJSON(data); err != nil {
		t.Fatalf("persisted trace invalid: %v", err)
	}
	if !strings.Contains(string(data), "request:slow") {
		t.Fatal("persisted trace missing the slow request's spans")
	}
	e, ok := f.Lookup("slowreq")
	if !ok || !e.Persisted {
		t.Fatalf("lookup slowreq = %+v, %v; want persisted entry", e, ok)
	}
	if e, ok := f.Lookup("fastreq"); !ok || e.Persisted {
		t.Fatalf("lookup fastreq = %+v, %v; want retained unpersisted entry", e, ok)
	}
	if r.Counter("flight.recorded").Value() != 2 || r.Counter("flight.persisted").Value() != 1 {
		t.Fatalf("flight counters = %s", r.Summary())
	}
}

func TestFlightWriteChrome(t *testing.T) {
	f := NewFlight(FlightConfig{})
	for _, id := range []string{"aaa", "bbb"} {
		tr := NewTracer()
		tr.Start("request:" + id).Finish()
		f.Record(FlightMeta{TraceID: id, DurUS: 10}, tr)
	}
	var all bytes.Buffer
	if err := f.WriteChrome(&all, ""); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(all.Bytes()); err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(all.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		pids[ev.PID] = true
	}
	if len(tf.TraceEvents) != 2 || !pids[1] || !pids[2] {
		t.Fatalf("dump events/pids = %d/%v, want one event each on pids 1 and 2", len(tf.TraceEvents), pids)
	}

	var one bytes.Buffer
	if err := f.WriteChrome(&one, "bbb"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(one.String(), "request:bbb") || strings.Contains(one.String(), "request:aaa") {
		t.Fatal("single-trace dump has the wrong events")
	}
	if err := f.WriteChrome(&one, "missing"); err == nil {
		t.Fatal("dump of an unretained trace should fail")
	}

	var nilDump bytes.Buffer
	var nf *Flight
	nf.Record(FlightMeta{}, nil)
	if err := nf.WriteChrome(&nilDump, ""); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(nilDump.Bytes()); err != nil {
		t.Fatalf("nil flight dump invalid: %v", err)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(7)
	r.Gauge("engine.resident_programs").Set(3)
	h := r.Histogram("server.request_ms", []int64{1, 8})
	for _, v := range []int64{0, 1, 2, 9} {
		h.Observe(v)
	}
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated expositions differ")
	}
	if err := ValidatePrometheus(a.Bytes()); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	for _, want := range []string{
		"# TYPE server_requests counter\nserver_requests 7\n",
		"# TYPE engine_resident_programs gauge\nengine_resident_programs 3\n",
		"# TYPE server_request_ms histogram\n",
		"server_request_ms_bucket{le=\"1\"} 2\n",
		"server_request_ms_bucket{le=\"8\"} 3\n",
		"server_request_ms_bucket{le=\"+Inf\"} 4\n",
		"server_request_ms_sum 12\n",
		"server_request_ms_count 4\n",
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, a.String())
		}
	}
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	cases := []struct{ name, data, want string }{
		{"undeclared sample", "foo 1\n", "no TYPE"},
		{"bad value", "# TYPE foo counter\nfoo many\n", "bad value"},
		{"bad name", "# TYPE 9foo counter\n9foo 1\n", "bad metric name"},
		{"descending le", "# TYPE h histogram\nh_bucket{le=\"8\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not ascending"},
		{"decreasing cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"8\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "negative count"},
		{"missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "sum to 2, want 3"},
		{"missing le", "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n", "le label"},
		{"fractional le", "# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n", "bad le"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\n", "_count"},
		{"negative counter", "# TYPE foo counter\nfoo -1\n", "negative"},
	}
	for _, tc := range cases {
		err := ValidatePrometheus([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := ValidatePrometheus([]byte("# HELP foo help text\n# TYPE foo counter\nfoo 1 1700000000\n\n")); err != nil {
		t.Errorf("valid exposition with HELP and timestamp rejected: %v", err)
	}
}

func TestLoggerLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 123e6, time.UTC) }
	l.Debug("hidden")
	l.Info("request", "method", "POST", "status", 200, "dur_ms", 1.5)
	l.Warn("odd", "key")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	want := `{"ts":"2026-08-07T12:00:00.123Z","level":"info","msg":"request","method":"POST","status":200,"dur_ms":1.5}`
	if lines[0] != want {
		t.Fatalf("line = %s\nwant   %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"!BADKEY":"key"`) {
		t.Fatalf("dangling key not flagged: %s", lines[1])
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line is not JSON: %s", line)
		}
	}

	var nl *Logger
	nl.Info("dropped")
	if nl.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Fatalf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel should reject unknown levels")
	}
}

func TestWindowStats(t *testing.T) {
	w := NewWindow([]int64{10, 100})
	base := time.Unix(1_000_000, 0)
	// 90 fast requests and 10 slow errors over the last 30 seconds.
	for i := 0; i < 90; i++ {
		w.Observe(base.Add(-time.Duration(i%30)*time.Second), 5, false)
	}
	for i := 0; i < 10; i++ {
		w.Observe(base.Add(-time.Duration(i%30)*time.Second), 500, true)
	}
	st := w.Stats(base, time.Minute)
	if st.Requests != 100 || st.Errors != 10 {
		t.Fatalf("requests/errors = %d/%d", st.Requests, st.Errors)
	}
	if st.ErrorRate != 0.10 {
		t.Fatalf("error rate = %v", st.ErrorRate)
	}
	if want := 100.0 / 60.0; st.RatePerSec != want {
		t.Fatalf("rate = %v, want %v", st.RatePerSec, want)
	}
	if st.P50MS != 10 {
		t.Fatalf("p50 = %d, want 10", st.P50MS)
	}
	if st.P99MS != 101 { // overflow bucket: largest bound + 1
		t.Fatalf("p99 = %d, want 101", st.P99MS)
	}

	// A minute later the 1m window is empty but 5m still sees them.
	later := base.Add(90 * time.Second)
	if st := w.Stats(later, time.Minute); st.Requests != 0 {
		t.Fatalf("1m window after idle minute = %+v", st)
	}
	if st := w.Stats(later, 5*time.Minute); st.Requests != 100 {
		t.Fatalf("5m window = %+v", st)
	}

	var nw *Window
	nw.Observe(base, 1, false)
	if st := nw.Stats(base, time.Minute); st != (WindowStats{}) {
		t.Fatalf("nil window stats = %+v", st)
	}
}

func TestWindowBucketReuse(t *testing.T) {
	w := NewWindow(nil)
	base := time.Unix(2_000_000, 0)
	w.Observe(base, 1, false)
	// windowSeconds later the same ring slot is reused for a new second;
	// the old observation must not leak into the new window.
	wrap := base.Add(windowSeconds * time.Second)
	w.Observe(wrap, 1, false)
	if st := w.Stats(wrap, 5*time.Minute); st.Requests != 1 {
		t.Fatalf("requests after ring reuse = %d, want 1", st.Requests)
	}
}

func TestRegistrySnapshotDuringUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", DefaultLatencyBounds)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(int64(i % 50))
				}
			}
		}()
	}
	var lastCount int64
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		hs := snap.Histograms["h"]
		if hs.Count < lastCount {
			t.Fatalf("snapshot count went backwards: %d -> %d", lastCount, hs.Count)
		}
		lastCount = hs.Count
		if got := len(hs.Buckets); got != len(DefaultLatencyBounds)+1 {
			t.Fatalf("snapshot has %d buckets", got)
		}
		if err := ValidatePrometheus(expose(t, snap)); err != nil {
			t.Fatalf("live exposition invalid: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	// Quiesced: bucket counts must again sum exactly to the count.
	snap := r.Snapshot()
	var total int64
	for _, b := range snap.Histograms["h"].Buckets {
		total += b.Count
	}
	if total != snap.Histograms["h"].Count || snap.Counters["c"] == 0 {
		t.Fatalf("quiesced bucket sum %d != count %d", total, snap.Histograms["h"].Count)
	}
}

func expose(t *testing.T, snap MetricsSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram(DefaultLatencyBounds)
	last := DefaultLatencyBounds[len(DefaultLatencyBounds)-1]
	h.Observe(0)        // exactly the first bound
	h.Observe(16)       // exactly an interior bound
	h.Observe(17)       // one past it
	h.Observe(last)     // exactly the final finite bound
	h.Observe(last + 1) // overflow bucket
	find := func(bound int64) int64 {
		for i, b := range h.bounds {
			if b == bound {
				return h.counts[i].Load()
			}
		}
		t.Fatalf("no bucket with bound %d", bound)
		return 0
	}
	if find(0) != 1 || find(16) != 1 || find(32) != 1 || find(last) != 1 {
		t.Fatal("boundary values landed in the wrong buckets")
	}
	if h.counts[len(h.bounds)].Load() != 1 {
		t.Fatal("overflow value missed the +inf bucket")
	}
	if got := h.Quantile(1.0); got != last+1 {
		t.Fatalf("max quantile = %d, want %d (overflow)", got, last+1)
	}
}

// The histogram behind /v1/metrics and the sliding windows behind
// /v1/health answer every quantile alike for the same samples. With
// fewer than 100 samples, p99 is the slowest sample's bucket (128 for
// 100 ms, 1024 for 1000 ms).
func TestHistogramAndWindowQuantilesAgree(t *testing.T) {
	for _, tc := range []struct {
		samples  []int64
		p50, p99 int64
	}{
		{[]int64{1, 100, 100}, 128, 128},
		{append(repeat(1, 49), 1000), 1, 1024},
		{append(repeat(1, 59), 1000), 1, 1024},
		{append(repeat(1, 99), 1000), 1, 1},
	} {
		h := newHistogram(DefaultLatencyBounds)
		w := NewWindow(nil)
		now := time.Unix(1_000_000, 0)
		for _, ms := range tc.samples {
			h.Observe(ms)
			w.Observe(now, ms, false)
		}
		st := w.Stats(now, time.Minute)
		n := len(tc.samples)
		if got := [2]int64{h.Quantile(0.50), h.Quantile(0.99)}; got != [2]int64{tc.p50, tc.p99} {
			t.Errorf("N=%d: histogram p50/p99 = %v, want %d/%d", n, got, tc.p50, tc.p99)
		}
		if got := [2]int64{st.P50MS, st.P99MS}; got != [2]int64{tc.p50, tc.p99} {
			t.Errorf("N=%d: window p50/p99 = %v, want %d/%d", n, got, tc.p50, tc.p99)
		}
	}
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
