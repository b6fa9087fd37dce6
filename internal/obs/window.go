package obs

import (
	"sync"
	"time"
)

// Sliding-window request aggregation: a ring of per-second buckets so
// the server can answer "what were the request rate, error rate and
// latency quantiles over the last minute / five minutes" from live
// traffic without retaining individual samples. All methods take the
// observation time explicitly, so tests drive the clock.

// windowSeconds is the ring capacity — enough for a 5-minute window.
const windowSeconds = 300

// windowBucket aggregates one wall-clock second of requests.
type windowBucket struct {
	sec    int64 // unix second this bucket currently describes
	count  int64
	errors int64
	// byBound[i] counts requests with latency <= bounds[i]; the last
	// slot is the overflow bucket, mirroring Histogram.
	byBound []int64
}

// Window accumulates per-second request aggregates over the last
// windowSeconds seconds. A nil *Window is a no-op / zero on every
// method.
type Window struct {
	mu      sync.Mutex
	bounds  []int64 // ascending latency bounds, milliseconds
	buckets [windowSeconds]windowBucket
}

// NewWindow builds a window using bounds (milliseconds, ascending) for
// latency quantiles; nil means DefaultLatencyBounds.
func NewWindow(bounds []int64) *Window {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	w := &Window{bounds: append([]int64(nil), bounds...)}
	for i := range w.buckets {
		w.buckets[i].byBound = make([]int64, len(w.bounds)+1)
	}
	return w
}

// bucketFor returns the ring bucket for sec, resetting it if it still
// describes an older second. Caller holds w.mu.
func (w *Window) bucketFor(sec int64) *windowBucket {
	b := &w.buckets[sec%windowSeconds]
	if b.sec != sec {
		b.sec = sec
		b.count, b.errors = 0, 0
		for i := range b.byBound {
			b.byBound[i] = 0
		}
	}
	return b
}

// Observe records one request finishing at t with the given latency.
// Nil-safe.
func (w *Window) Observe(t time.Time, durMS int64, isErr bool) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.bucketFor(t.Unix())
	b.count++
	if isErr {
		b.errors++
	}
	i := 0
	for i < len(w.bounds) && durMS > w.bounds[i] {
		i++
	}
	b.byBound[i]++
}

// WindowStats summarizes one span of recent traffic.
type WindowStats struct {
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	RatePerSec float64 `json:"rate_per_sec"`
	ErrorRate  float64 `json:"error_rate"`
	P50MS      int64   `json:"p50_ms"`
	P99MS      int64   `json:"p99_ms"`
}

// Stats aggregates the span seconds ending at t (exclusive of seconds
// older than the span, inclusive of t's own second). Quantiles follow
// Histogram.Quantile's nearest-rank rule (nearestRank): the bound of
// the bucket holding the quantile's sample, or the largest bound + 1
// for overflow. Nil-safe (zero).
func (w *Window) Stats(t time.Time, span time.Duration) WindowStats {
	if w == nil {
		return WindowStats{}
	}
	secs := int64(span / time.Second)
	if secs <= 0 {
		secs = 1
	}
	if secs > windowSeconds {
		secs = windowSeconds
	}
	now := t.Unix()
	var st WindowStats
	merged := make([]int64, len(w.bounds)+1)
	w.mu.Lock()
	for s := now - secs + 1; s <= now; s++ {
		b := &w.buckets[s%windowSeconds]
		if b.sec != s {
			continue // bucket is stale or from a different second
		}
		st.Requests += b.count
		st.Errors += b.errors
		for i, c := range b.byBound {
			merged[i] += c
		}
	}
	w.mu.Unlock()
	st.RatePerSec = float64(st.Requests) / float64(secs)
	if st.Requests > 0 {
		st.ErrorRate = float64(st.Errors) / float64(st.Requests)
		st.P50MS = nearestRank(w.bounds, merged, st.Requests, 0.50)
		st.P99MS = nearestRank(w.bounds, merged, st.Requests, 0.99)
	}
	return st
}
