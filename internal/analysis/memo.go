package analysis

import (
	"sync"
	"sync/atomic"

	"rasc/internal/core"
	"rasc/internal/obs"
)

// jobMemo is the in-memory analogue of the on-disk result cache: raw
// (pre-suppression) per-job diagnostics and entry base stats, keyed by
// exactly the disk cache's content coordinates — checker registry
// fingerprint, solver options (with the explain marker), checker
// fingerprint, entry name and the entry's transitive summary digest.
// Skeletons and property layers cover only the entry's call-graph
// closure, so a job's diagnostics and solver stats are a function of
// those coordinates: a memo entry can never resolve to a result computed
// from different code, options or checker definitions, and replays are
// byte-identical to fresh solves. The memo therefore needs no
// invalidation — an edit moves the summaries of exactly the entries it
// dirties, their old keys stop resolving, and every other entry keeps
// hitting.
//
// The memo lives on an Engine and is shared by every resident program
// and request: content addressing makes cross-program sharing sound.
// Lookups and stores are mutex-guarded; capacity is bounded by a FIFO
// over insertion order (content keys have no useful recency structure —
// a stale summary never hits again regardless of eviction order).
type jobMemo struct {
	mu      sync.Mutex
	max     int
	entries map[memoKey]memoVal
	order   []memoKey

	hits, misses atomic.Int64
	m            *obs.ServerMetrics // nil-safe instruments
}

type memoKey struct {
	kind    string // "job" or "entry"
	regFP   string
	opts    string
	checker string // checker fingerprint; "" for entry records
	entry   string
	summary string
}

type memoVal struct {
	ds    []Diagnostic
	stats core.Stats
	base  core.Stats
}

// defaultMemoEntries bounds the memo when EngineConfig leaves it unset:
// enough for dozens of warm programs, small next to the program state
// itself (a record is one job's diagnostics).
const defaultMemoEntries = 8192

func newJobMemo(max int, m *obs.ServerMetrics) *jobMemo {
	if max <= 0 {
		max = defaultMemoEntries
	}
	return &jobMemo{max: max, entries: map[memoKey]memoVal{}, m: m}
}

func (jm *jobMemo) load(k memoKey) (memoVal, bool) {
	jm.mu.Lock()
	v, ok := jm.entries[k]
	jm.mu.Unlock()
	if ok {
		jm.hits.Add(1)
		if jm.m != nil {
			jm.m.MemoHits.Inc()
		}
	} else {
		jm.misses.Add(1)
		if jm.m != nil {
			jm.m.MemoMisses.Inc()
		}
	}
	return v, ok
}

func (jm *jobMemo) store(k memoKey, v memoVal) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if _, ok := jm.entries[k]; !ok {
		for len(jm.order) >= jm.max {
			drop := jm.order[0]
			jm.order = jm.order[1:]
			delete(jm.entries, drop)
		}
		jm.order = append(jm.order, k)
	}
	jm.entries[k] = v
}

// loadJob / storeJob mirror cacheSession.loadJob/storeJob in memory.
func (jm *jobMemo) loadJob(regFP, opts, checkerFP, entry, summary string) ([]Diagnostic, core.Stats, bool) {
	v, ok := jm.load(memoKey{kind: "job", regFP: regFP, opts: opts, checker: checkerFP, entry: entry, summary: summary})
	return v.ds, v.stats, ok
}

func (jm *jobMemo) storeJob(regFP, opts, checkerFP, entry, summary string, ds []Diagnostic, st core.Stats) {
	jm.store(memoKey{kind: "job", regFP: regFP, opts: opts, checker: checkerFP, entry: entry, summary: summary},
		memoVal{ds: ds, stats: st})
}

// loadEntry / storeEntry mirror the skeleton base-stats records.
func (jm *jobMemo) loadEntry(regFP, opts, entry, summary string) (core.Stats, bool) {
	v, ok := jm.load(memoKey{kind: "entry", regFP: regFP, opts: opts, entry: entry, summary: summary})
	return v.base, ok
}

func (jm *jobMemo) storeEntry(regFP, opts, entry, summary string, base core.Stats) {
	jm.store(memoKey{kind: "entry", regFP: regFP, opts: opts, entry: entry, summary: summary},
		memoVal{base: base})
}

// lazySession defers cacheSession construction to the first lookup
// that actually needs disk: session setup stamps every function in the
// program against the cache directory, which is pure overhead for a
// request the in-memory memo can serve outright. Nil-safe — a nil
// *lazySession (no cache configured) gets and reports nil sessions.
type lazySession struct {
	once sync.Once
	mk   func() *cacheSession
	cs   *cacheSession
}

// get materializes (once) and returns the session.
func (l *lazySession) get() *cacheSession {
	if l == nil {
		return nil
	}
	l.once.Do(func() { l.cs = l.mk() })
	return l.cs
}

// made returns the session only if some caller already materialized
// it. Callers must be ordered after every get() site (the driver calls
// it after its worker WaitGroup), so the plain read is safe.
func (l *lazySession) made() *cacheSession {
	if l == nil {
		return nil
	}
	return l.cs
}

func (jm *jobMemo) len() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.entries)
}
