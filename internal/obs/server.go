package obs

// ServerMetrics is the resident analysis engine's bundle, and with the
// cache.* bundle the one store of its cross-request counts: request
// throughput, failures, resident-state accounting and the
// request-latency distribution that p50/p99 headline numbers are read
// from.
type ServerMetrics struct {
	// Requests counts engine check requests started (one per client
	// check/explain call); Errors counts the subset that failed.
	Requests *Counter
	Errors   *Counter
	// Evictions counts resident programs evicted under the memory
	// budget; ResidentPrograms is the current resident-program count.
	Evictions        *Counter
	ResidentPrograms *Gauge
	// MemoHits and MemoMisses sum the requests' memory-tier lookups
	// (the layer above the on-disk cache.* counters), added once per
	// successful request.
	MemoHits   *Counter
	MemoMisses *Counter
	// RequestMs is the end-to-end engine request latency distribution in
	// milliseconds (delta apply + re-lower + analyze); RelowerMs is the
	// distribution of the re-lowering step alone on requests that
	// carried a file delta.
	RequestMs *Histogram
	RelowerMs *Histogram
}

// NewServerMetrics interns the server bundle in r.
func NewServerMetrics(r *Registry) *ServerMetrics {
	return &ServerMetrics{
		Requests:         r.Counter("server.requests"),
		Errors:           r.Counter("server.errors"),
		Evictions:        r.Counter("server.evictions"),
		ResidentPrograms: r.Gauge("server.resident_programs"),
		MemoHits:         r.Counter("server.memo_hits"),
		MemoMisses:       r.Counter("server.memo_misses"),
		RequestMs:        r.Histogram("server.request_ms", DefaultLatencyBounds),
		RelowerMs:        r.Histogram("server.relower_ms", DefaultLatencyBounds),
	}
}
