package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"syscall"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/gosrc"
)

// ClientOptions tunes a Client. Zero fields take defaults.
type ClientOptions struct {
	// Timeout bounds each HTTP request end to end (default 5 minutes —
	// a cold first check of a large program is a real analysis run).
	Timeout time.Duration
}

// retryBackoff is the wait before a client resends a request that
// failed with connection refused. It resends once, so a daemon
// mid-restart doesn't fail clients hard. Only connection-refused
// retries: the request never reached a server, so resending cannot
// double-apply anything.
const retryBackoff = 200 * time.Millisecond

// Client talks to a gocheckd daemon. The zero value is not usable; use
// NewClient or NewClientWith.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client with default options. addr may be a bare
// host:port or a full http:// URL.
func NewClient(addr string) *Client {
	return NewClientWith(addr, ClientOptions{})
}

// NewClientWith builds a client with explicit options.
func NewClientWith(addr string, opts ClientOptions) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		http: &http.Client{Timeout: opts.Timeout},
	}
}

// connRefused detects a connection-refused transport failure through
// any wrapping (url.Error -> net.OpError -> os.SyscallError).
func connRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// decode reads one JSON response, mapping non-2xx statuses to the
// server's error body, tagged with the response's trace ID so a failed
// request can be found in the daemon's logs and flight recorder.
func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("server: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		trace := ""
		if id := resp.Header.Get(TraceHeader); id != "" {
			trace = " (trace " + id + ")"
		}
		var er errorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return fmt.Errorf("server: %s%s", er.Error, trace)
		}
		return fmt.Errorf("server: HTTP %d: %s%s", resp.StatusCode, strings.TrimSpace(string(body)), trace)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("server: undecodable response: %w", err)
	}
	return nil
}

// do issues one request, resending it once after retryBackoff when it
// fails with connection refused. The body is kept as bytes so every
// attempt sends a fresh reader.
func (c *Client) do(method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if attempt == 0 && connRefused(err) {
				time.Sleep(retryBackoff)
				continue
			}
			return fmt.Errorf("server: %w", err)
		}
		return decode(resp, out)
	}
}

func (c *Client) get(path string, out any) error {
	return c.do(http.MethodGet, path, nil, out)
}

func (c *Client) post(path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("server: encoding request: %w", err)
	}
	return c.do(http.MethodPost, path, raw, out)
}

// Health probes GET /v1/health.
func (c *Client) Health() (HealthResponse, error) {
	var h HealthResponse
	err := c.get("/v1/health", &h)
	return h, err
}

// Manifest fetches the server's file-hash manifest for a program.
func (c *Client) Manifest(program string) (ManifestResponse, error) {
	var m ManifestResponse
	err := c.get("/v1/manifest?program="+url.QueryEscape(program), &m)
	return m, err
}

// Check posts one check request and returns the server's report, with
// the envelope's trace ID attached to the report's unrendered TraceID.
func (c *Client) Check(req CheckRequest) (*analysis.Report, error) {
	var resp CheckResponse
	if err := c.post("/v1/check", req, &resp); err != nil {
		return nil, err
	}
	if resp.Report == nil {
		return nil, fmt.Errorf("server: response carried no report")
	}
	// json:"-" telemetry fields don't survive the wire inside the
	// report; rehydrate the trace ID from the envelope.
	resp.Report.TraceID = resp.TraceID
	return resp.Report, nil
}

// CheckFiles diffs the local file set against the server's manifest and
// posts the minimal delta: the resident-engine fast path for editor and
// CI clients.
func (c *Client) CheckFiles(program string, files []gosrc.File, req CheckRequest) (*analysis.Report, error) {
	m, err := c.Manifest(program)
	if err != nil {
		return nil, err
	}
	req.Program = program
	req.Upserts, req.Removes = Delta(files, m.Files)
	return c.Check(req)
}

// Metrics fetches GET /v1/metrics.
func (c *Client) Metrics() (MetricsResponse, error) {
	var m MetricsResponse
	err := c.get("/v1/metrics", &m)
	return m, err
}

// Shutdown requests a graceful daemon stop.
func (c *Client) Shutdown() error {
	return c.post("/v1/shutdown", struct{}{}, nil)
}
