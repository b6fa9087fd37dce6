package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// is a no-op on every method, so instrumented code can hold counters
// unconditionally and pay one nil test when metrics are off.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value with a max-tracking update for
// high-water marks. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n is larger (a lock-free high-water
// mark). Nil-safe.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram over fixed ascending bucket upper
// bounds (the last implicit bucket is +inf), with atomic per-bucket
// counts: observations never allocate and concurrent Observe calls
// need no lock. Nil-safe like Counter.
type Histogram struct {
	bounds []int64 // ascending upper bounds (inclusive)
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// DefaultSizeBounds is the power-of-two bucket ladder used for size
// distributions (reach-set sizes, layer widths).
var DefaultSizeBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// DefaultLatencyBounds is the power-of-two millisecond ladder used for
// request/operation latency distributions; the implicit final bucket
// catches anything over ~16s.
var DefaultLatencyBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of samples (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts by nearest rank (see nearestRank): exact up to bucket
// granularity, with samples in the implicit +inf bucket reporting one
// past the last finite bound. Returns 0 on nil or when no samples were
// observed.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	return nearestRank(h.bounds, counts, total, q)
}

// nearestRank is the package's one quantile rule, shared by
// Histogram.Quantile and Window.Stats. Given per-bucket counts of total
// samples over ascending bounds plus a final overflow bucket, it returns
// the upper bound of the bucket holding the sample of rank ⌈q·total⌉,
// or one past the last bound for the overflow bucket. With fewer than
// 100 samples, the 0.99 rank is the last sample, so p99 is the slowest
// request's bucket.
func nearestRank(bounds, counts []int64, total int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank && i < len(bounds) {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1] + 1
}

// Registry interns named counters, gauges and histograms. Interning is
// mutex-guarded; the returned instruments update lock-free. All methods
// are nil-safe and return nil (no-op) instruments on a nil registry, so
// "metrics off" is one nil registry test at setup time.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter interns a counter by name. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge interns a gauge by name. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns a histogram by name; bounds apply only on first
// creation. Nil-safe.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistBucket is one exported histogram bucket; LE is nil for the final
// +inf bucket.
type HistBucket struct {
	LE    *int64 `json:"le"`
	Count int64  `json:"count"`
}

// HistSnapshot is one exported histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets"`
}

// MetricsSnapshot is the exported (and schema-validated) form of a
// registry: plain sorted-key maps.
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value. Nil-safe (empty
// snapshot).
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		// Count is derived from the bucket counts actually read, not the
		// histogram's own counter: under concurrent Observe the two can
		// disagree transiently, and every snapshot must satisfy the
		// "bucket counts sum to count" invariant the schema validators
		// (JSON and Prometheus) enforce.
		hs := HistSnapshot{Sum: h.sum.Load()}
		for i := range h.counts {
			b := HistBucket{Count: h.counts[i].Load()}
			if i < len(h.bounds) {
				le := h.bounds[i]
				b.LE = &le
			}
			hs.Count += b.Count
			hs.Buckets = append(hs.Buckets, b)
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), so repeated exports of identical
// state are byte-identical. Nil-safe.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Fprintf-style convenience used by CLIs to show a few headline
// counters without dumping the whole snapshot.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", n, snap.Counters[n])
	}
	return s
}
