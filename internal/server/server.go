// Package server is the HTTP/JSON serving layer over the resident
// analysis engine (analysis.Engine): the request/response protocol
// types, the daemon-side handler, and the client used by gocheck's
// -server mode. The protocol is deliberately plain — stdlib net/http,
// JSON bodies, no streaming — because the expensive state lives in the
// engine, not the transport: a warm re-check request carries one edited
// file and returns a full Report.
//
// Endpoints (all under /v1/):
//
//	POST /v1/check         body CheckRequest -> CheckResponse (a body
//	                       naming an unknown field or holding more than
//	                       one object is answered 400, one over 64 MiB
//	                       413)
//	GET  /v1/manifest      ?program=NAME     -> ManifestResponse (name -> sha256)
//	GET  /v1/list          registered checkers, text/plain
//	GET  /v1/metrics       -> MetricsResponse (?format=prometheus for
//	                       text exposition v0.0.4)
//	GET  /v1/health        -> HealthResponse (SLO-aware: ok/degraded)
//	GET  /v1/debug/flight  flight-recorder traces, Chrome trace JSON
//	                       (?trace=ID for one request — the ID a check
//	                       response carries — ?list=1 for metadata)
//	GET  /v1/debug/vars    plain-text telemetry summary
//	POST /v1/shutdown      graceful stop (when the daemon enables it)
//
// Every response carries the request's trace ID in X-Rasc-Trace-Id.
//
// Determinism contract: the report returned for a CheckRequest is
// byte-identical (after JSON round-trip) to a one-shot analysis.Analyze
// over the same sources with the same options; the Cache block is
// stripped server-side exactly like the one-shot CLI strips it before
// rendering, so client-side renders match one-shot renders byte for
// byte. Telemetry (flight recorder, request tracing, access logs)
// rides entirely on json:"-" report fields and response envelope
// fields, so the contract holds with telemetry on or off.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/gosrc"
	"rasc/internal/obs"
)

// maxCheckBody bounds the body of a /v1/check request, so that no single
// request can make the daemon buffer without limit. This repository's
// own internal/... source is about 1.1 MB.
const maxCheckBody = 64 << 20

// CheckRequest is the body of POST /v1/check: the engine's request,
// decoded as is.
type CheckRequest = analysis.CheckRequest

// FilePayload is one source file on the wire.
type FilePayload = gosrc.File

// CheckResponse is the body of a successful POST /v1/check. TraceID is
// envelope-level telemetry: the report itself renders identically with
// or without it, and GET /v1/debug/flight?trace=ID serves the request's
// span tree.
type CheckResponse struct {
	Report  *analysis.Report `json:"report"`
	TraceID string           `json:"trace_id,omitempty"`
}

// ManifestResponse maps a resident program's file names to the SHA-256
// of their content, so clients push only changed files.
type ManifestResponse struct {
	Program string            `json:"program"`
	Files   map[string]string `json:"files"`
}

// MetricsResponse is the body of GET /v1/metrics.
type MetricsResponse struct {
	Engine   analysis.EngineStats   `json:"engine"`
	Programs []analysis.ProgramInfo `json:"programs"`
	// P50MS / P99MS are nearest-rank, bucket-granular quantiles of the
	// engine's request-latency histogram since process start.
	P50MS   int64               `json:"p50_ms"`
	P99MS   int64               `json:"p99_ms"`
	Metrics obs.MetricsSnapshot `json:"metrics"`
}

// HealthResponse is the body of GET /v1/health. The endpoint always
// answers HTTP 200; Status is "ok" or "degraded" (with Reasons) judged
// from the sliding windows against the configured SLO thresholds, and
// OK is simply Status == "ok".
type HealthResponse struct {
	OK        bool                       `json:"ok"`
	Status    string                     `json:"status"`
	Reasons   []string                   `json:"reasons,omitempty"`
	Version   string                     `json:"version"`
	GoVersion string                     `json:"go_version"`
	UptimeMS  int64                      `json:"uptime_ms"`
	Windows   map[string]obs.WindowStats `json:"windows"`
}

// errorResponse is every endpoint's failure body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler serves the /v1/ API over one resident engine.
type Handler struct {
	engine   *Engine
	registry *obs.Registry
	flight   *obs.Flight
	log      *obs.Logger
	windows  *obs.Window
	start    time.Time
	// onShutdown, when non-nil, enables POST /v1/shutdown and is called
	// (once, asynchronously) to stop the daemon.
	onShutdown   func()
	shutdownOnce sync.Once
}

// Engine is the handler's view of the resident engine.
type Engine = analysis.Engine

// HandlerConfig wires one Handler. Engine is required; everything else
// is optional telemetry.
type HandlerConfig struct {
	// Engine is the resident engine requests run against.
	Engine *Engine
	// Registry must be the registry the engine was configured with (it
	// backs /v1/metrics); nil disables the registry-backed metrics.
	Registry *obs.Registry
	// Flight, when non-nil, backs /v1/debug/flight. It should be the
	// same recorder the engine was configured with, so engine-recorded
	// requests are what the endpoint serves.
	Flight *obs.Flight
	// Log, when non-nil, receives one structured access-log line per
	// request.
	Log *obs.Logger
	// OnShutdown, when non-nil, enables POST /v1/shutdown and is called
	// (once, asynchronously) to stop the daemon.
	OnShutdown func()
}

// NewHandler builds the API handler.
func NewHandler(cfg HandlerConfig) *Handler {
	return &Handler{
		engine:     cfg.Engine,
		registry:   cfg.Registry,
		flight:     cfg.Flight,
		log:        cfg.Log,
		windows:    obs.NewWindow(nil),
		start:      time.Now(),
		onShutdown: cfg.OnShutdown,
	}
}

// Mux returns the daemon's route multiplexer, without the telemetry
// middleware. Most callers want Root.
func (h *Handler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", h.handleCheck)
	mux.HandleFunc("/v1/manifest", h.handleManifest)
	mux.HandleFunc("/v1/list", h.handleList)
	mux.HandleFunc("/v1/metrics", h.handleMetrics)
	mux.HandleFunc("/v1/health", h.handleHealth)
	mux.HandleFunc("/v1/debug/flight", h.handleFlight)
	mux.HandleFunc("/v1/debug/vars", h.handleVars)
	mux.HandleFunc("/v1/shutdown", h.handleShutdown)
	return mux
}

// Root returns the daemon's full request handler: the route mux wrapped
// in the telemetry middleware (trace IDs, access logs, SLO windows).
func (h *Handler) Root() http.Handler {
	return h.telemetry(h.Mux())
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (h *Handler) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// A field the request type lacks, or anything after the request
	// object, is refused rather than ignored, so a misspelt or retired
	// option never reads as absent.
	var req CheckRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCheckBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	info := infoFrom(r)
	if info != nil {
		info.check = true
		// The handler-minted trace ID identifies the request in the
		// engine's flight recorder, the access log and the response
		// header alike.
		req.TraceID = info.traceID
	}
	rep, err := h.engine.Check(req)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if info != nil {
		info.program = analysis.ProgramName(req.Program)
		info.memoHits, info.memoMisses = rep.MemoHits, rep.MemoMisses
	}
	// Strip cache telemetry exactly like the one-shot CLI does before
	// rendering: the client's render must be byte-identical to a
	// one-shot run's.
	rep.Cache = nil
	writeJSON(w, http.StatusOK, CheckResponse{Report: rep, TraceID: rep.TraceID})
}

func (h *Handler) handleManifest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	name := analysis.ProgramName(r.URL.Query().Get("program"))
	writeJSON(w, http.StatusOK, ManifestResponse{Program: name, Files: h.engine.Manifest(name)})
}

func (h *Handler) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	analysis.ListText(w)
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, h.registry.Snapshot())
		return
	}
	resp := MetricsResponse{
		Engine:   h.engine.Stats(),
		Programs: h.engine.Programs(),
		P50MS:    h.engine.LatencyMS(0.50),
		P99MS:    h.engine.LatencyMS(0.99),
		Metrics:  h.registry.Snapshot(),
	}
	if resp.Programs == nil {
		resp.Programs = []analysis.ProgramInfo{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.health(time.Now()))
}

func (h *Handler) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if h.onShutdown == nil {
		writeError(w, http.StatusForbidden, "shutdown endpoint disabled")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"stopping": true})
	h.shutdownOnce.Do(func() { go h.onShutdown() })
}

// HashFiles computes the manifest view (name -> hex SHA-256) of a local
// file set; clients diff it against GET /v1/manifest to build a minimal
// delta.
func HashFiles(files []gosrc.File) map[string]string {
	out := make(map[string]string, len(files))
	for _, f := range files {
		sum := sha256.Sum256([]byte(f.Src))
		out[f.Name] = hex.EncodeToString(sum[:])
	}
	return out
}

// Delta computes the minimal CheckRequest file fields that bring a
// server manifest to the local file set: changed/new files as upserts,
// names the server has but the client does not as removes.
func Delta(local []gosrc.File, remote map[string]string) (upserts []gosrc.File, removes []string) {
	localHash := HashFiles(local)
	for _, f := range local {
		if remote[f.Name] != localHash[f.Name] {
			upserts = append(upserts, f)
		}
	}
	for name := range remote {
		if _, ok := localHash[name]; !ok {
			removes = append(removes, name)
		}
	}
	sort.Strings(removes)
	return upserts, removes
}
