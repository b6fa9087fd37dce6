package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"rasc/internal/obs"
)

// Version is the build/protocol version reported by /v1/health and the
// daemon's startup log.
const Version = "0.10.0"

// TraceHeader carries the request's trace ID on every response.
const TraceHeader = "X-Rasc-Trace-Id"

// The thresholds /v1/health judges the sliding windows against: a
// window degrades health when its p99 latency exceeds sloP99MS or its
// error fraction exceeds sloErrorRate, once it holds sloMinRequests
// requests — a single failed request on an idle daemon is not an SLO
// breach.
const (
	sloP99MS       = 2000
	sloErrorRate   = 0.05
	sloMinRequests = 5
)

// requestInfo is the per-request record the telemetry middleware and
// the route handlers share: the middleware mints the trace ID and
// writes the access log; handleCheck fills in what only it knows.
type requestInfo struct {
	traceID    string
	program    string
	check      bool // a /v1/check request: feeds the SLO windows
	memoHits   int64
	memoMisses int64
}

type ctxKey struct{}

func infoFrom(r *http.Request) *requestInfo {
	info, _ := r.Context().Value(ctxKey{}).(*requestInfo)
	return info
}

// statusWriter captures the response status for logging and window
// accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// telemetry wraps the route mux with the per-request plumbing: a trace
// ID minted up front and returned on every response, a JSON access log
// line per request, and SLO-window accounting for check traffic.
func (h *Handler) telemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		info := &requestInfo{traceID: obs.NewTraceID()}
		w.Header().Set(TraceHeader, info.traceID)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, info)))
		dur := time.Since(t0)
		status := sw.status()
		if info.check {
			// Only check requests feed the SLO windows: health pings and
			// metric scrapes would dilute the latency quantiles the
			// thresholds are judged against.
			h.windows.Observe(time.Now(), dur.Milliseconds(), status >= 400)
		}
		if h.log.Enabled(obs.LevelInfo) {
			kv := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"dur_ms", float64(dur.Microseconds()) / 1000,
			}
			if info.program != "" {
				kv = append(kv,
					"program", info.program,
					"memo_hits", info.memoHits,
					"memo_misses", info.memoMisses,
				)
			}
			kv = append(kv, "trace_id", info.traceID)
			h.log.Info("request", kv...)
		}
	})
}

// health judges the sliding windows against the SLO thresholds. The
// response is always HTTP 200; degradation is in the body (status
// "degraded" plus reasons), so load balancers polling for liveness and
// dashboards polling for quality read the same endpoint.
func (h *Handler) health(now time.Time) HealthResponse {
	resp := HealthResponse{
		Status:    "ok",
		Version:   Version,
		GoVersion: runtime.Version(),
		UptimeMS:  time.Since(h.start).Milliseconds(),
		Windows:   map[string]obs.WindowStats{},
	}
	for _, win := range []struct {
		name string
		span time.Duration
	}{{"1m", time.Minute}, {"5m", 5 * time.Minute}} {
		st := h.windows.Stats(now, win.span)
		resp.Windows[win.name] = st
		if st.Requests < sloMinRequests {
			continue
		}
		if st.ErrorRate > sloErrorRate {
			resp.Reasons = append(resp.Reasons, fmt.Sprintf(
				"%s error rate %.1f%% exceeds %.1f%%", win.name, st.ErrorRate*100, sloErrorRate*100))
		}
		if st.P99MS > sloP99MS {
			resp.Reasons = append(resp.Reasons, fmt.Sprintf(
				"%s p99 %dms exceeds %dms", win.name, st.P99MS, sloP99MS))
		}
	}
	if len(resp.Reasons) > 0 {
		resp.Status = "degraded"
	}
	resp.OK = resp.Status == "ok"
	return resp
}

// handleFlight serves GET /v1/debug/flight: the retained flight-recorder
// traces as Chrome trace-event JSON (?trace=ID narrows to one request;
// ?list=1 returns the retained entries' metadata instead).
func (h *Handler) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if h.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	if r.URL.Query().Get("list") == "1" {
		entries := h.flight.Entries()
		if entries == nil {
			entries = []obs.FlightEntry{}
		}
		writeJSON(w, http.StatusOK, entries)
		return
	}
	// Buffered so a missing trace can still answer with a clean 404.
	var buf bytes.Buffer
	if err := h.flight.WriteChrome(&buf, r.URL.Query().Get("trace")); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// handleVars serves GET /v1/debug/vars: a plain-text one-glance summary
// for humans on a terminal (curl, watch) — the machine-readable forms
// are /v1/metrics and /v1/health.
func (h *Handler) handleVars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	now := time.Now()
	fmt.Fprintf(w, "gocheckd %s (%s)\n", Version, runtime.Version())
	fmt.Fprintf(w, "uptime: %s\n", time.Since(h.start).Round(time.Second))
	st := h.engine.Stats()
	fmt.Fprintf(w, "engine: requests=%d errors=%d resident=%d evictions=%d memo=%d/%d cache=%d/%d\n",
		st.Requests, st.Errors, st.ResidentPrograms, st.Evictions,
		st.MemoHits, st.MemoHits+st.MemoMisses, st.CacheHits, st.CacheHits+st.CacheMisses)
	for _, win := range []struct {
		name string
		span time.Duration
	}{{"1m", time.Minute}, {"5m", 5 * time.Minute}} {
		ws := h.windows.Stats(now, win.span)
		fmt.Fprintf(w, "window %s: requests=%d rate=%.2f/s errors=%.1f%% p50=%dms p99=%dms\n",
			win.name, ws.Requests, ws.RatePerSec, ws.ErrorRate*100, ws.P50MS, ws.P99MS)
	}
	if h.flight != nil {
		fs := h.flight.Stats()
		fmt.Fprintf(w, "flight: recorded=%d retained=%d slowest=%d slowest_us=%d\n",
			fs.Recorded, fs.Retained, fs.Slowest, fs.SlowestUS)
	}
	if sum := h.registry.Summary(); sum != "" {
		fmt.Fprintf(w, "counters: %s\n", sum)
	}
}
