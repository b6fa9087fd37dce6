package analysis

import (
	"sync"

	"rasc/internal/obs"
)

// memTier is the memory tier of the result store: job records by
// recordKey, owned by an Engine and shared by every resident program and
// request. Content keys make the sharing sound and need no invalidation:
// an edit moves the summaries of exactly the entries it dirties, their
// old keys stop resolving, and every other entry keeps hitting.
//
// Capacity is two generations of up to the bound each. Records enter
// the current generation; when it is full it becomes the old one and the
// previous old one is dropped. A hit in the old generation promotes the
// record back. Any set of up to the bound's records that keeps hitting
// (the jobs every request of a resident program touches) therefore stays
// in memory once one request has touched it, while records of stale
// summaries age out. The tier holds at most twice the bound.
type memTier struct {
	mu       sync.Mutex
	gen      int
	cur, old map[recordKey]jobRecord
	m        *obs.ServerMetrics // hit/miss instruments; nil OK
}

// defaultMemoEntries bounds the memory tier when EngineConfig leaves it
// unset: enough for dozens of warm programs, small next to the program
// state itself (a record is one job's diagnostics).
const defaultMemoEntries = 8192

func newMemTier(entries int, m *obs.ServerMetrics) *memTier {
	if entries <= 0 {
		entries = defaultMemoEntries
	}
	return &memTier{gen: entries, cur: map[recordKey]jobRecord{}, m: m}
}

func (m *memTier) get(k recordKey) (jobRecord, bool) {
	m.mu.Lock()
	rec, ok := m.cur[k]
	if !ok {
		if rec, ok = m.old[k]; ok {
			m.putLocked(k, rec)
		}
	}
	m.mu.Unlock()
	if m.m != nil {
		if ok {
			m.m.MemoHits.Inc()
		} else {
			m.m.MemoMisses.Inc()
		}
	}
	return rec, ok
}

func (m *memTier) put(k recordKey, rec jobRecord) {
	m.mu.Lock()
	m.putLocked(k, rec)
	m.mu.Unlock()
}

func (m *memTier) putLocked(k recordKey, rec jobRecord) {
	delete(m.old, k)
	if _, ok := m.cur[k]; !ok && len(m.cur) >= m.gen {
		m.old, m.cur = m.cur, make(map[recordKey]jobRecord)
	}
	m.cur[k] = rec
}

func (m *memTier) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
