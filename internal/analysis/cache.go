// The result store. A job's result is a function of its recordKey —
// checker-registry fingerprint, explain marker, checker fingerprint,
// entry function and the entry's transitive summary digest
// (internal/ir) — because skeletons and property layers cover only the
// entry's call-graph closure. So a key can never resolve to a result
// computed from different analysis input, and invalidation is free: an
// edit changes the summary digests of exactly the edited function's SCC
// and its transitive callers, their keys stop resolving, and only those
// entries re-solve.
//
// The store has two tiers behind that one key: memory (memTier, owned by
// the Engine) and, when a run has a Cache, disk. The on-disk format is
// deliberately dumb: a flat directory holding, per entry, one JSON file
// of the entry's job records, named by the SHA-256 of the key without
// the checker and wrapped in an envelope carrying the format version and
// a SHA-256 of the body. One file per entry, not per job, keeps a cold
// fill's file creations — whose cost on a real filesystem is large and
// erratic next to writing the bytes — at one per entry. Files of any
// other name are left alone. Any defect — truncation, garbage, a failed
// integrity check, a version bump — demotes the file's records to misses
// with a note; the store never panics and never changes what a run
// reports (beyond the Report.Cache block).
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rasc/internal/core"
	"rasc/internal/obs"
)

// CacheVersion is the on-disk format version. Bump it whenever the
// record schema or key derivation changes incompatibly; records written
// under another version read as misses (with one note per run), never
// as wrong results. Version 3: job records carry the entry skeleton's
// base stats, and each entry's job records share one file, the only JSON
// file kind.
const CacheVersion = 3

// Cache is a handle on an on-disk result cache directory, the disk tier
// of the result store. It is safe for concurrent use by any number of
// runs; everything a run accumulates lives on its storeRun.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("analysis: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// recordKey names one job's result in both tiers of the store.
type recordKey struct {
	regFP   string // checker-registry fingerprint
	explain bool   // explain records store provenance, so they key apart
	checker string // checker fingerprint
	entry   string
	summary string // the entry's transitive summary digest
}

// solverOpts is the solver-options field hashed into every record file
// name. Every skeleton is solved under the zero core.Options, and this is
// how %+v rendered that value while the options still had the fields
// NoWitness and CycleBudget. The string is frozen so that existing cache
// files keep hitting: changing it would turn every record file into a
// miss.
const solverOpts = "{NoCycleElim:false NoProjMerge:false NoHashCons:false NoWitness:false CycleBudget:0 PruneDead:false}"

// fileName is the name of the file holding the job records of the key's
// entry: the SHA-256 of the key without the checker. Every job of one
// entry, summary and explain mode files its record there, under its
// slot.
func (k recordKey) fileName() string {
	opts := solverOpts
	if k.explain {
		opts += " explain"
	}
	h := sha256.New()
	fmt.Fprintf(h, "jobs\nreg:%s\nopts:%s\nentry:%s\nsum:%s\n", k.regFP, opts, k.entry, k.summary)
	return "job-" + hex.EncodeToString(h.Sum(nil)) + ".json"
}

// slot is the job's place in its entry's record file: the SHA-256 of the
// checker fingerprint.
func (k recordKey) slot() string {
	sum := sha256.Sum256([]byte(k.checker))
	return hex.EncodeToString(sum[:])
}

// jobRecord is a stored raw job result: the pre-suppression diagnostics,
// the job's solver-stats delta and, for property jobs, the base stats of
// the entry skeleton it was layered on (so a run served from the store
// reports the same solver totals without building any skeleton).
// Suppression directives are applied afresh by every run's merge phase,
// so //rasc:ignore edits never require invalidation.
type jobRecord struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Stats       core.Stats   `json:"stats"`
	Base        core.Stats   `json:"base"`
}

// recordFile is one entry's job-record file as a run sees it: read once,
// at the run's first disk lookup on the entry, and rewritten by flush
// if the run computed any of the entry's jobs.
type recordFile struct {
	once sync.Once
	recs map[string]jobRecord // by slot; nil when absent or unusable
}

// envelope wraps every on-disk record file with an integrity check.
type envelope struct {
	Version int             `json:"version"`
	Sum     string          `json:"sum"` // hex SHA-256 of Body
	Body    json.RawMessage `json:"body"`
}

// loadStatus classifies one record-file read, for metric hooks. Every
// status except loadHit makes the file's lookups miss.
type loadStatus int

const (
	loadHit loadStatus = iota
	loadAbsent
	loadCorrupt // decode, integrity-check or body failure
	loadSkew    // format version mismatch
	loadError   // unreadable file (permissions, I/O)
)

// CacheStats summarizes the cache's effect on one Analyze run.
type CacheStats struct {
	// Hits and Misses count disk lookups: one per job the memory tier
	// could not serve, whichever file holds its record.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// ResolvedFunctions counts the functions whose constraints were
	// actually (re-)solved this run: the call-graph closures of the
	// entries that had at least one job computed. 0 on a fully warm run.
	ResolvedFunctions int `json:"resolved_functions"`
	// TotalFunctions is the package's function count, for context.
	TotalFunctions int `json:"total_functions"`
	// Resolved lists the re-solved functions' canonical names, sorted.
	Resolved []string `json:"resolved,omitempty"`
	// Notes lists non-fatal cache incidents (corruption, version skew).
	Notes []string `json:"notes,omitempty"`
}

// HitRate returns hits/(hits+misses) in percent, 100 for an empty run.
func (s *CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 100
	}
	return 100 * float64(s.Hits) / float64(total)
}

// storeRun is one analyze call's view of the result store: the memory
// tier, the optional disk tier, the key coordinates the run pins, and
// everything the run accumulates — hit and miss counters, cache notes,
// the record files it read and the set of entries it computed jobs for —
// so concurrent runs sharing a Cache or an Engine never see each other's
// accounting.
type storeRun struct {
	mem  *memTier
	disk *Cache // nil: memory only
	pkg  *Package

	regFP   string
	explain bool
	// summaries holds each entry's summary digest, rendered once per run.
	summaries map[string]string

	cacheM *obs.CacheMetrics // job-record lookups, file reads and stores; nil OK

	memHits, memMisses atomic.Int64
	hits, misses       atomic.Int64

	mu       sync.Mutex
	notes    []string
	noted    map[string]bool
	skewed   map[int]int            // skewed record files by format version
	files    map[string]*recordFile // by entry
	computed map[string]bool
}

func newStoreRun(mem *memTier, pkg *Package, entries []string, cfg *Config, ob *obsState) *storeRun {
	s := &storeRun{
		mem:       mem,
		disk:      cfg.Cache,
		pkg:       pkg,
		regFP:     registryFingerprint(),
		explain:   cfg.Explain,
		summaries: make(map[string]string, len(entries)),
		noted:     map[string]bool{},
		skewed:    map[int]int{},
		files:     map[string]*recordFile{},
		computed:  map[string]bool{},
	}
	for _, e := range entries {
		s.summaries[e] = pkg.Prog.ByName[e].Summary.String()
	}
	if ob != nil {
		s.cacheM = ob.cacheM
	}
	return s
}

// key returns the record key of c's job on entry.
func (s *storeRun) key(c *Checker, entry string) recordKey {
	return recordKey{regFP: s.regFP, explain: s.explain,
		checker: c.fingerprint(), entry: entry, summary: s.summaries[entry]}
}

// recall looks a job up in the memory tier.
func (s *storeRun) recall(k recordKey) (jobRecord, bool) {
	rec, ok := s.mem.get(k)
	if ok {
		s.memHits.Add(1)
	} else {
		s.memMisses.Add(1)
	}
	return rec, ok
}

// load looks a job up in the disk tier, as a cache.lookup span under sp,
// and promotes a hit into memory. Without a disk tier it always misses.
func (s *storeRun) load(k recordKey, sp *obs.Span) (jobRecord, bool) {
	if s.disk == nil {
		return jobRecord{}, false
	}
	lsp := sp.Child("cache.lookup")
	rec, ok := s.file(k).recs[k.slot()]
	lsp.Finish()
	if m := s.cacheM; m != nil {
		if ok {
			m.Hits.Inc()
		} else {
			m.Misses.Inc()
		}
	}
	if !ok {
		s.misses.Add(1)
		sp.SetAttr("cache", "miss")
		return jobRecord{}, false
	}
	s.hits.Add(1)
	sp.SetAttr("cache", "hit")
	s.mem.put(k, rec)
	return rec, true
}

// file returns the record file of the key's entry, reading it on the
// run's first lookup of the entry. A corrupt or version-skewed file
// counts once, as the read that found it.
func (s *storeRun) file(k recordKey) *recordFile {
	s.mu.Lock()
	f := s.files[k.entry]
	if f == nil {
		f = &recordFile{}
		s.files[k.entry] = f
	}
	s.mu.Unlock()
	f.once.Do(func() {
		var recs map[string]jobRecord
		st := s.read(k.fileName(), &recs)
		if st == loadHit {
			f.recs = recs
		}
		if m := s.cacheM; m != nil {
			switch st {
			case loadCorrupt:
				m.Corrupt.Inc()
			case loadSkew:
				m.VersionSkew.Inc()
			}
		}
	})
	return f
}

// store files a computed job's record in memory and marks its entry as
// computed; flush writes it to disk with the rest of the entry's records.
func (s *storeRun) store(k recordKey, rec jobRecord) {
	s.mem.put(k, rec)
	s.mu.Lock()
	s.computed[k.entry] = true
	s.mu.Unlock()
}

// flush writes, as one cache.store span, the record file of every entry
// the run computed a job for: the records of all the run's jobs on the
// entry, whichever tier served them, over those the file already held
// for checkers outside the run. keys, recs and errs are the run's jobs;
// a failed job has no record to write. A computed entry's file was read
// by the lookup that preceded the computation.
func (s *storeRun) flush(keys []recordKey, recs []jobRecord, errs []error, ob *obsState) {
	if s.disk == nil || len(s.computed) == 0 {
		return
	}
	sp := ob.span("cache.store")
	defer sp.Finish()
	files := map[string]map[string]jobRecord{} // by entry
	var first []recordKey                      // one key per file, in job order
	for i, k := range keys {
		if errs[i] != nil || !s.computed[k.entry] {
			continue
		}
		if files[k.entry] == nil {
			files[k.entry] = maps.Clone(s.files[k.entry].recs)
			if files[k.entry] == nil {
				files[k.entry] = map[string]jobRecord{}
			}
			first = append(first, k)
		}
		files[k.entry][k.slot()] = recs[i]
	}
	for _, k := range first {
		name, f := k.fileName(), files[k.entry]
		body, err := json.Marshal(f)
		if err != nil {
			s.note("cache: encoding %s: %v", name, err)
			continue
		}
		sum := sha256.Sum256(body)
		enc, err := json.Marshal(envelope{Version: CacheVersion, Sum: hex.EncodeToString(sum[:]), Body: body})
		if err != nil {
			s.note("cache: encoding %s: %v", name, err)
			continue
		}
		if s.write(name, enc) && s.cacheM != nil {
			s.cacheM.Stores.Add(int64(len(f)))
		}
	}
}

// note records a non-fatal cache incident (corrupt record, failed write)
// once per distinct message.
func (s *storeRun) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	if !s.noted[msg] {
		s.noted[msg] = true
		s.notes = append(s.notes, msg)
	}
	s.mu.Unlock()
}

// read reads the envelope named name into out. A missing file is a
// silent miss; a corrupt file is a miss with a note and a best-effort
// removal, so it cannot keep tripping; a version-skewed file is a
// counted miss that the run's flush overwrites.
func (s *storeRun) read(name string, out any) loadStatus {
	path := filepath.Join(s.disk.dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.note("cache: unreadable %s: %v", name, err)
			return loadError
		}
		return loadAbsent
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.note("cache: corrupt record %s discarded: %v", name, err)
		os.Remove(path)
		return loadCorrupt
	}
	if env.Version != CacheVersion {
		s.mu.Lock()
		s.skewed[env.Version]++
		s.mu.Unlock()
		return loadSkew
	}
	sum := sha256.Sum256(env.Body)
	if hex.EncodeToString(sum[:]) != env.Sum {
		s.note("cache: record %s failed its integrity check; discarded", name)
		os.Remove(path)
		return loadCorrupt
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		s.note("cache: record %s body undecodable; discarded: %v", name, err)
		os.Remove(path)
		return loadCorrupt
	}
	return loadHit
}

// write stores data in the cache directory under name atomically (temp
// file + rename). A failure is noted and otherwise ignored: a cache that
// cannot write degrades to a cache that never hits.
func (s *storeRun) write(name string, data []byte) bool {
	tmp, err := os.CreateTemp(s.disk.dir, "tmp-*")
	if err == nil {
		_, err = tmp.Write(data)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), filepath.Join(s.disk.dir, name))
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	if err != nil {
		s.note("cache: writing %s: %v", name, err)
		return false
	}
	return true
}

// finish computes the run's CacheStats; nil without a disk tier.
func (s *storeRun) finish() *CacheStats {
	if s.disk == nil {
		return nil
	}
	st := &CacheStats{
		Hits:           int(s.hits.Load()),
		Misses:         int(s.misses.Load()),
		TotalFunctions: len(s.pkg.Prog.Funcs),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	resolved := map[int]bool{}
	for e := range s.computed {
		for _, id := range s.pkg.Prog.Reachable(e) {
			resolved[id] = true
		}
	}
	for id := range resolved {
		st.Resolved = append(st.Resolved, s.pkg.Prog.Funcs[id].Name)
	}
	sort.Strings(st.Resolved)
	st.ResolvedFunctions = len(st.Resolved)
	if s.cacheM != nil {
		s.cacheM.ResolvedFunctions.Add(int64(st.ResolvedFunctions))
	}
	st.Notes = append(st.Notes, s.notes...)
	sort.Strings(st.Notes)
	// Version skew is one note per run, however many records it hit.
	if len(s.skewed) > 0 {
		n, versions := 0, make([]int, 0, len(s.skewed))
		for v, c := range s.skewed {
			n += c
			versions = append(versions, v)
		}
		sort.Ints(versions)
		st.Notes = append(st.Notes, fmt.Sprintf("cache: %d job-record file(s) have format version %s, want %d; re-solved and overwritten",
			n, strings.Trim(fmt.Sprint(versions), "[]"), CacheVersion))
	}
	return st
}
