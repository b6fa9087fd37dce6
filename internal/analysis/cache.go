// Persistent incremental-analysis cache. Results are content-addressed:
// every key bakes in the cache format version indirectly (checked per
// file), the checker-registry fingerprint, the solver options, and the
// transitive summary digest of the entry function (internal/ir), so a
// key can never resolve to a result computed from different analysis
// input. Invalidation is therefore free — an edit changes the summary
// digests of exactly the edited function's SCC and its transitive
// callers, their keys stop resolving, and only those entries re-solve;
// everything else is a hit.
//
// The on-disk format is deliberately dumb: one JSON file per record in a
// flat directory, each wrapped in an envelope carrying the format
// version and a SHA-256 of the body. Any defect — truncation, garbage,
// a failed integrity check, a version bump — demotes the record to a
// cache miss with a note; the cache never panics and never changes what
// a run reports (beyond the Report.Cache block).
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rasc/internal/core"
	"rasc/internal/obs"
	"rasc/internal/pdm"
	"rasc/internal/snapshot"
)

// CacheVersion is the on-disk format version. Bump it whenever the
// record schema or key derivation changes incompatibly; records written
// under another version read as misses (with a note), never as wrong
// results. Version 2: job and entry records hold entry-sliced solver
// stats.
const CacheVersion = 2

// Cache is a handle on an on-disk result cache directory. It is safe for
// concurrent use by any number of Analyze runs.
type Cache struct {
	dir string

	mu    sync.Mutex
	notes []string
	noted map[string]bool
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("analysis: cache: %w", err)
	}
	return &Cache{dir: dir, noted: map[string]bool{}}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// note records a non-fatal cache incident (corrupt record, version
// skew, failed write) once per distinct message.
func (c *Cache) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	if !c.noted[msg] {
		c.noted[msg] = true
		c.notes = append(c.notes, msg)
	}
	c.mu.Unlock()
}

func (c *Cache) takeNotes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.notes
	c.notes = nil
	c.noted = map[string]bool{}
	return out
}

// envelope wraps every on-disk record with an integrity check.
type envelope struct {
	Version int             `json:"version"`
	Sum     string          `json:"sum"` // hex SHA-256 of Body
	Body    json.RawMessage `json:"body"`
}

// loadStatus classifies one record lookup, for metric hooks. Every
// status except loadHit behaves as a miss.
type loadStatus int

const (
	loadHit loadStatus = iota
	loadAbsent
	loadCorrupt // decode, integrity-check or body failure
	loadSkew    // format version mismatch
	loadError   // unreadable file (permissions, I/O)
)

// load reads the record at path into out. A missing file is a silent
// miss; a corrupt or version-skewed file is a miss with a note (and a
// best-effort removal of corrupt files so they cannot keep tripping).
// The returned status distinguishes the miss causes for metrics; every
// caller treating it as a boolean compares against loadHit.
func (c *Cache) load(path string, out any) loadStatus {
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.note("cache: unreadable %s: %v", filepath.Base(path), err)
			return loadError
		}
		return loadAbsent
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		c.note("cache: corrupt record %s discarded: %v", filepath.Base(path), err)
		os.Remove(path)
		return loadCorrupt
	}
	if env.Version != CacheVersion {
		c.note("cache: record %s has format version %d, want %d; falling back to a cold solve",
			filepath.Base(path), env.Version, CacheVersion)
		return loadSkew
	}
	sum := sha256.Sum256(env.Body)
	if hex.EncodeToString(sum[:]) != env.Sum {
		c.note("cache: record %s failed its integrity check; discarded", filepath.Base(path))
		os.Remove(path)
		return loadCorrupt
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		c.note("cache: record %s body undecodable; discarded: %v", filepath.Base(path), err)
		os.Remove(path)
		return loadCorrupt
	}
	return loadHit
}

// store writes a record atomically (temp file + rename). Failures are
// noted and otherwise ignored: a cache that cannot write degrades to a
// cache that never hits.
func (c *Cache) store(path string, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		c.note("cache: encoding %s: %v", filepath.Base(path), err)
		return
	}
	sum := sha256.Sum256(raw)
	env := envelope{Version: CacheVersion, Sum: hex.EncodeToString(sum[:]), Body: raw}
	enc, err := json.Marshal(env)
	if err != nil {
		c.note("cache: encoding %s: %v", filepath.Base(path), err)
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		c.note("cache: writing %s: %v", filepath.Base(path), err)
		return
	}
	_, werr := tmp.Write(enc)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.note("cache: writing %s: %v", filepath.Base(path), firstErr(werr, cerr))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.note("cache: writing %s: %v", filepath.Base(path), err)
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CacheStats summarizes the cache's effect on one Analyze run.
type CacheStats struct {
	// Hits and Misses count content-key lookups (one per job, plus one
	// per entry with a property checker for the skeleton's base stats).
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// ResolvedFunctions counts the functions whose constraints were
	// actually (re-)solved this run: functions reachable from some missed
	// entry that had no valid up-to-date stamp. 0 on a fully warm run.
	ResolvedFunctions int `json:"resolved_functions"`
	// TotalFunctions is the package's function count, for context.
	TotalFunctions int `json:"total_functions"`
	// Resolved lists the re-solved functions' canonical names, sorted.
	Resolved []string `json:"resolved,omitempty"`
	// SkeletonHits counts entry skeletons reconstructed from a frozen
	// snapshot instead of a live build-and-solve; SkeletonMisses counts
	// skeleton builds that had no usable snapshot. Skeleton lookups are
	// deliberately not folded into Hits/Misses: those count result-record
	// lookups, and their hit rate is what the cache-effectiveness CI job
	// asserts on.
	SkeletonHits   int `json:"skeleton_hits,omitempty"`
	SkeletonMisses int `json:"skeleton_misses,omitempty"`
	// SkeletonCorrupt counts snapshots discarded by integrity or
	// structural validation (also counted in SkeletonMisses).
	SkeletonCorrupt int `json:"skeleton_corrupt,omitempty"`
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

// jobRecord is a cached raw job result: the pre-suppression diagnostics
// and the job's solver-stats delta. Suppression directives are applied
// afresh by every run's merge phase, so //rasc:ignore edits never
// require invalidation.
type jobRecord struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Stats       core.Stats   `json:"stats"`
}

// entryRecord caches an entry's skeleton base stats so warm runs can
// report identical solver totals without rebuilding the skeleton.
type entryRecord struct {
	Base core.Stats `json:"base"`
}

// fnRecord stamps one function's summary digest as solved under the
// session's registry/options: its presence means the cached results
// covering this function are up to date.
type fnRecord struct {
	Fn string `json:"fn"`
}

// cacheSession binds a Cache to one Analyze run: it pins the registry
// and options fingerprints, tracks hit/miss counters and computes the
// set of functions the run had to re-solve.
type cacheSession struct {
	c     *Cache
	pkg   *Package
	regFP string
	opts  string
	// optsRaw is opts without the explain marker: skeleton snapshots are
	// property-independent, so explain and non-explain runs share them.
	optsRaw string
	// coreOpts are the session's solver options, revalidated against the
	// options a snapshot was encoded under at decode time.
	coreOpts core.Options
	// snapshots enables the frozen-skeleton snapshot path (load before a
	// live BuildSkeleton, store after one).
	snapshots bool

	// metrics (nil OK) receives per-lookup hit/miss/corrupt/skew and
	// per-write store counts for job and entry records. Function-stamp
	// probes are not counted, matching CacheStats.
	metrics *obs.CacheMetrics
	// snapM (nil OK) receives skeleton-snapshot hit/miss/corrupt/skew
	// counts, byte volumes and encode/decode timings.
	snapM *obs.SnapshotMetrics

	hits, misses                      atomic.Int64
	skelHits, skelMisses, skelCorrupt atomic.Int64

	// stale[id] reports that function id had no valid stamp when the
	// session started (its summary changed, or the cache is cold).
	stale map[int]bool

	mu     sync.Mutex
	solved map[string]bool // entries some job actually solved
}

// session starts a cache session for one Analyze run. It stamps-checks
// every function up front so that re-solved accounting is independent
// of job scheduling. Explain runs key separately: cached records store
// diagnostics verbatim, and a record written without provenance must
// never satisfy a run that wants it (or vice versa). Non-explain keys
// are unchanged, so existing caches keep hitting.
func (c *Cache) session(pkg *Package, opts core.Options, explain bool, m *obs.CacheMetrics) *cacheSession {
	optKey := fmt.Sprintf("%+v", opts)
	if explain {
		optKey += " explain"
	}
	cs := &cacheSession{
		c:        c,
		pkg:      pkg,
		regFP:    registryFingerprint(),
		opts:     optKey,
		optsRaw:  fmt.Sprintf("%+v", opts),
		coreOpts: opts,
		metrics:  m,
		stale:    map[int]bool{},
		solved:   map[string]bool{},
	}
	for _, f := range pkg.Prog.Funcs {
		var rec fnRecord
		if c.load(cs.fnPath(f.ID), &rec) != loadHit || rec.Fn != f.Name {
			cs.stale[f.ID] = true
		}
	}
	return cs
}

// observe feeds one job/entry lookup's outcome into the metric bundle.
func (cs *cacheSession) observe(st loadStatus) {
	m := cs.metrics
	if m == nil {
		return
	}
	if st == loadHit {
		m.Hits.Inc()
		return
	}
	m.Misses.Inc()
	switch st {
	case loadCorrupt:
		m.Corrupt.Inc()
	case loadSkew:
		m.VersionSkew.Inc()
	}
}

// key derives a content key; kind separates the key spaces.
func (cs *cacheSession) key(kind string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nreg:%s\nopts:%s\n", kind, cs.regFP, cs.opts)
	for _, p := range parts {
		fmt.Fprintf(h, "%s\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summaryOf returns the entry function's transitive summary digest.
func (cs *cacheSession) summaryOf(entry string) string {
	return cs.pkg.Prog.ByName[entry].Summary.String()
}

func (cs *cacheSession) jobPath(c *Checker, entry string) string {
	return filepath.Join(cs.c.dir,
		"job-"+cs.key("job", c.fingerprint(), "entry:"+entry, "sum:"+cs.summaryOf(entry))+".json")
}

func (cs *cacheSession) entryPath(entry string) string {
	return filepath.Join(cs.c.dir,
		"entry-"+cs.key("entry", "entry:"+entry, "sum:"+cs.summaryOf(entry))+".json")
}

func (cs *cacheSession) fnPath(id int) string {
	f := cs.pkg.Prog.Funcs[id]
	return filepath.Join(cs.c.dir,
		"fn-"+cs.key("fn", "fn:"+f.Name, "sum:"+f.Summary.String())+".json")
}

// loadJob looks one (checker, entry) job up.
func (cs *cacheSession) loadJob(c *Checker, entry string) ([]Diagnostic, core.Stats, bool) {
	var rec jobRecord
	st := cs.c.load(cs.jobPath(c, entry), &rec)
	cs.observe(st)
	if st != loadHit {
		cs.misses.Add(1)
		cs.mu.Lock()
		cs.solved[entry] = true
		cs.mu.Unlock()
		return nil, core.Stats{}, false
	}
	cs.hits.Add(1)
	return rec.Diagnostics, rec.Stats, true
}

// storeJob persists one solved job's raw result.
func (cs *cacheSession) storeJob(c *Checker, entry string, ds []Diagnostic, st core.Stats) {
	cs.c.store(cs.jobPath(c, entry), jobRecord{Diagnostics: ds, Stats: st})
	if cs.metrics != nil {
		cs.metrics.Stores.Inc()
	}
}

// loadEntry looks an entry's skeleton base stats up.
func (cs *cacheSession) loadEntry(entry string) (core.Stats, bool) {
	var rec entryRecord
	st := cs.c.load(cs.entryPath(entry), &rec)
	cs.observe(st)
	if st != loadHit {
		cs.misses.Add(1)
		return core.Stats{}, false
	}
	cs.hits.Add(1)
	return rec.Base, true
}

func (cs *cacheSession) storeEntry(entry string, base core.Stats) {
	cs.c.store(cs.entryPath(entry), entryRecord{Base: base})
	if cs.metrics != nil {
		cs.metrics.Stores.Inc()
	}
}

// skelPath derives the on-disk name of an entry's frozen-skeleton
// snapshot. The key bakes in everything the snapshot's validity depends
// on: the container format version, the checker-registry fingerprint
// (event callees shape skeleton construction), the solver options, and
// the entry's transitive summary digest — any code or configuration
// change moves the key, so a stale snapshot is an ordinary miss, never
// a wrong skeleton. Explain mode is deliberately absent: skeletons are
// property-independent, so both run flavors share one snapshot.
func (cs *cacheSession) skelPath(entry string) string {
	h := sha256.New()
	fmt.Fprintf(h, "skel\nv:%d\nreg:%s\nopts:%s\nentry:%s\nsum:%s\n",
		snapshot.FormatVersion, cs.regFP, cs.optsRaw, entry, cs.summaryOf(entry))
	return filepath.Join(cs.c.dir, "skel-"+hex.EncodeToString(h.Sum(nil))+".snap")
}

// loadSkeleton reconstructs entry's skeleton from its snapshot, if one
// exists and survives validation. Every failure demotes to a live build:
// a missing file is a silent miss, version skew is a counted miss with a
// note, and corruption (container integrity, structural validation, or
// a program/entry mismatch that the content key should have prevented)
// is a counted miss with a note and a best-effort removal.
func (cs *cacheSession) loadSkeleton(entry string) (*pdm.Skeleton, bool) {
	path := cs.skelPath(entry)
	m := cs.snapM
	miss := func() (*pdm.Skeleton, bool) {
		cs.skelMisses.Add(1)
		if m != nil {
			m.Misses.Inc()
		}
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			cs.c.note("cache: unreadable skeleton snapshot %s: %v", filepath.Base(path), err)
		}
		return miss()
	}
	t0 := time.Now()
	sk, err := pdm.LoadSkeleton(data, cs.pkg.Prog, entry, cs.coreOpts)
	if err != nil {
		if errors.Is(err, snapshot.ErrVersion) {
			cs.c.note("cache: skeleton snapshot %s has a different format version; falling back to a live build",
				filepath.Base(path))
			if m != nil {
				m.VersionSkew.Inc()
			}
			return miss()
		}
		cs.c.note("cache: corrupt skeleton snapshot %s discarded: %v", filepath.Base(path), err)
		os.Remove(path)
		cs.skelCorrupt.Add(1)
		if m != nil {
			m.Corrupt.Inc()
		}
		return miss()
	}
	cs.skelHits.Add(1)
	if m != nil {
		m.Hits.Inc()
		m.Bytes.Add(int64(len(data)))
		m.DecodeMs.Observe(time.Since(t0).Milliseconds())
	}
	return sk, true
}

// storeSkeleton serializes a freshly built skeleton beside the JSON
// result records (atomic temp-file + rename; the container carries its
// own SHA-256 and per-section CRCs, so no envelope is needed). Write
// failures degrade to a snapshot that never hits.
func (cs *cacheSession) storeSkeleton(entry string, sk *pdm.Skeleton) {
	t0 := time.Now()
	data := sk.Snapshot()
	encodeMs := time.Since(t0).Milliseconds()
	path := cs.skelPath(entry)
	tmp, err := os.CreateTemp(cs.c.dir, "tmp-*")
	if err != nil {
		cs.c.note("cache: writing %s: %v", filepath.Base(path), err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		cs.c.note("cache: writing %s: %v", filepath.Base(path), firstErr(werr, cerr))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		cs.c.note("cache: writing %s: %v", filepath.Base(path), err)
		return
	}
	if m := cs.snapM; m != nil {
		m.Stores.Inc()
		m.Bytes.Add(int64(len(data)))
		m.EncodeMs.Observe(encodeMs)
	}
}

// finish computes the run's CacheStats and writes the function stamps
// for everything the run solved.
func (cs *cacheSession) finish() *CacheStats {
	st := &CacheStats{
		Hits:            int(cs.hits.Load()),
		Misses:          int(cs.misses.Load()),
		TotalFunctions:  len(cs.pkg.Prog.Funcs),
		SkeletonHits:    int(cs.skelHits.Load()),
		SkeletonMisses:  int(cs.skelMisses.Load()),
		SkeletonCorrupt: int(cs.skelCorrupt.Load()),
	}
	cs.mu.Lock()
	solved := make([]string, 0, len(cs.solved))
	for e := range cs.solved {
		solved = append(solved, e)
	}
	cs.mu.Unlock()
	resolved := map[int]bool{}
	for _, e := range solved {
		for _, id := range cs.pkg.Prog.Reachable(e) {
			if cs.stale[id] {
				resolved[id] = true
			}
		}
	}
	for id := range resolved {
		st.Resolved = append(st.Resolved, cs.pkg.Prog.Funcs[id].Name)
		cs.c.store(cs.fnPath(id), fnRecord{Fn: cs.pkg.Prog.Funcs[id].Name})
	}
	sort.Strings(st.Resolved)
	st.ResolvedFunctions = len(st.Resolved)
	st.Notes = cs.c.takeNotes()
	return st
}
