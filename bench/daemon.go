package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rasc/internal/gosrc"
	"rasc/internal/server"
)

// runServer measures the editor path through gocheckd. Each client owns
// a resident program (c0, c1: the same corpus) and sends one
// single-file upsert at a time, waiting for the findings before the next
// (a closed loop):
//
//	server-novel  each upsert carries a never-seen edit
//	server-flip   each client toggles one site between two variants
func runServer(cfg config, r *result) error {
	c, err := newCorpus(cfg.seed, cfg.files)
	if err != nil {
		return err
	}
	bins, err := buildBinaries(cfg.root)
	if err != nil {
		return err
	}
	dir, release, err := scratchDir(cfg.root, cfg.workload)
	if err != nil {
		return err
	}
	defer release()
	ref, err := newReference(cfg.refs, c.files)
	if err != nil {
		return err
	}
	clients := make([]*client, min(2, runtime.NumCPU()))
	for k := range clients {
		cl := &client{name: fmt.Sprintf("c%d", k), st: c.state(), ref: ref}
		if cfg.workload == "server-flip" {
			cl.edits = c.flip(cfg.seed, k)
		} else {
			cl.edits = c.novel(cfg.seed, k)
		}
		clients[k] = cl
	}

	cal, err := newCalibrator()
	if err != nil {
		return err
	}

	// The daemon's set-up: process start, then each client's full push.
	// Three times, each with a fresh cache; the last daemon stays.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setup, err := cal.setups(setupRepeats, func(i int) (time.Duration, error) {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		d, err = startDaemon(bins.gocheckd, filepath.Join(dir, fmt.Sprintf("cache%d", i)))
		if err != nil {
			return 0, err
		}
		for _, cl := range clients {
			cl.connect(d.addr)
			if !r.check(cl.push(c.files)) {
				return 0, fmt.Errorf("set-up push: %s", r.problems[len(r.problems)-1])
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}

	// Two requests per client warm up; for server-flip they introduce the
	// two variants, after which every request is a memo hit.
	for _, cl := range clients {
		cl.request()
		cl.request()
		cl.lat = nil
	}
	// Segments as in calibrator.loop: the clients wait while the
	// reference job runs, then load the daemon for segmentLen.
	var segs [][]float64 // both clients' raw latencies, per segment
	var spans []float64  // segment durations in seconds
	start := time.Now()
	scales, err := cal.bracketed(func(i int) bool { return i == 0 || time.Since(start) < cfg.seconds }, func(int) error {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *client) {
				defer wg.Done()
				for first := true; first || (time.Since(t0) < segmentLen && !live.stopped()); first = false {
					cl.request()
				}
			}(cl)
		}
		wg.Wait()
		spans = append(spans, time.Since(t0).Seconds())
		var seg []float64
		for _, cl := range clients {
			seg = append(seg, cl.lat...)
			cl.lat = nil
		}
		segs = append(segs, seg)
		return nil
	})
	if err != nil {
		return err
	}
	var raw, lat []float64
	var busy float64 // calibrated seconds of load
	for i, seg := range segs {
		busy += spans[i] * scales[i]
		for _, v := range seg {
			raw = append(raw, v)
			lat = append(lat, v*scales[i])
		}
	}

	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	var enc, size []float64
	for _, cl := range clients {
		enc = append(enc, cl.enc...)
		size = append(size, cl.size...)
		r.attempted += cl.attempted
		r.failed += cl.failed
		r.problems = append(r.problems, cl.problems...)
	}
	if len(lat) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	r.endToEnd(cal, raw, lat, float64(len(lat))/busy, rss, 1, setup)
	r.notef("clients %d, closed loop", len(clients))
	r.notef("generator client-side JSON encode %.4f ms per request (median)", median(enc))
	r.notef("response %.0f bytes (median)", median(size))
	if m, err := server.NewClient(d.addr).Metrics(); err == nil {
		r.notef("daemon memo hits %d misses %d", m.Engine.MemoHits, m.Engine.MemoMisses)
	}
	return nil
}

// client is one closed-loop editor working against the daemon. Its
// tallies are private, merged into the result after the run.
type client struct {
	name  string
	st    *state
	edits stream
	ref   *reference
	url   string
	http  *http.Client

	lat               []float64 // raw latencies not yet collected
	enc, size         []float64
	attempted, failed int
	problems          []string
}

// connect points the client at a daemon, over one keep-alive
// connection.
func (cl *client) connect(addr string) {
	cl.url = "http://" + addr + "/v1/check"
	cl.http = &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// push sends the full file set, as a client's first request does.
func (cl *client) push(files []gosrc.File) error {
	body, err := json.Marshal(cl.body(files))
	if err != nil {
		return err
	}
	_, _, err = cl.send(body)
	return err
}

// request applies the client's next edit, sends it and records the
// outcome. Latency runs from sending the request to having read the
// whole response.
func (cl *client) request() {
	f := cl.st.apply(cl.edits.next())
	t0 := time.Now()
	body, err := json.Marshal(cl.body([]gosrc.File{f}))
	enc := time.Since(t0)
	var lat time.Duration
	var size int
	if err == nil {
		lat, size, err = cl.send(body)
	}
	cl.attempted++
	if err != nil {
		cl.failed++
		if len(cl.problems) < 5 {
			cl.problems = append(cl.problems, cl.name+": "+err.Error())
		}
		return
	}
	cl.lat = append(cl.lat, ms(lat))
	cl.enc = append(cl.enc, ms(enc))
	cl.size = append(cl.size, float64(size))
}

func (cl *client) body(files []gosrc.File) server.CheckRequest {
	req := server.CheckRequest{Program: cl.name}
	for _, f := range files {
		req.Upserts = append(req.Upserts, server.FilePayload{Name: f.Name, Src: f.Src})
	}
	return req
}

// send posts one encoded request and checks the response against the
// reference.
func (cl *client) send(body []byte) (time.Duration, int, error) {
	t0 := time.Now()
	resp, err := cl.http.Post(cl.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	return lat, len(data), cl.ref.checkResponse(resp.StatusCode, data)
}

// checkResponse compares one /v1/check response with the reference,
// byte for byte. The fast path compares the raw body with the envelope
// the daemon writes around the reference report, allowing only the
// request's trace ID to differ; anything else is decoded and its report
// re-rendered, so a change in the envelope's formatting alone is not a
// failure.
func (ref *reference) checkResponse(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	if ref.envelopeMatches(body) {
		return nil
	}
	var resp server.CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Report == nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	if !ref.sameReport(resp.Report) {
		return errors.New("report differs from the reference")
	}
	return nil
}

func (ref *reference) envelopeMatches(body []byte) bool {
	pre, suf := ref.Envelope[0], ref.Envelope[1]
	if len(body) < len(pre)+len(suf) || !bytes.HasPrefix(body, pre) || !bytes.HasSuffix(body, suf) {
		return false
	}
	id := body[len(pre) : len(body)-len(suf)]
	return len(id) > 0 && bytes.IndexAny(id, "\"\\\n") < 0
}
