// Resident analysis engine. Engine is the long-lived form of the
// driver: it owns loaded programs (translated sources, lowered IR,
// solved skeletons), the memory tier of the result store, the open
// on-disk cache and the observability registry across any number of
// requests, so a warm re-check after a small edit pays for exactly the
// edit — changed files re-translate through the per-file memo
// (gosrc.Memo), unchanged functions keep their fingerprints
// (ir.NewIncremental), and jobs whose content key is unchanged replay
// from memory without touching disk. A file set the program holds — the
// current one or one of the few it was at just before — short-circuits
// entirely: its resident Package, including its built skeletons, is
// reused as-is, so identical re-checks never rebuild anything.
//
// Concurrency model: a resident program's mutable state (its lowered
// file sets and translation memo) is guarded by a per-program mutex
// that serializes delta application and re-lowering; the Package a
// request analyzes is an immutable snapshot, so any number of requests
// analyze concurrently — against the same program or different ones —
// exactly like concurrent one-shot runs over a shared Package. Findings
// stay deterministic because nothing downstream of the snapshot is
// request-ordered: job results are content-keyed, merges happen in job
// order, and stats are sums.
//
// Analyze, the one-shot entry point, runs the same driver core
// (analyze) over a Package from the same loader (load), with a fresh
// memory tier and no resident state.
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/obs"
)

// EngineConfig configures a resident Engine. The zero value is a valid
// minimal engine: no disk cache, a private metrics registry, unbounded
// memory.
type EngineConfig struct {
	// Cache, when non-nil, backs the engine with the on-disk incremental
	// cache (shared with one-shot runs; keys are identical).
	Cache *Cache
	// MemoryBudget caps the estimated resident-program footprint in
	// bytes; past it, least-recently-used programs are evicted wholesale
	// (their next request must push the full file set again; an evicted
	// program's Manifest is empty). 0 means no eviction.
	MemoryBudget int64
	// Metrics receives the per-run bundles (solver, pdm, cache, driver)
	// plus the engine's server.* bundle, and is where Stats reads the
	// engine's counts. Nil gives the engine a registry of its own.
	Metrics *obs.Registry
	// Flight, when non-nil, records every request — trace ID, outcome,
	// duration, memo accounting and full span tree — into the flight
	// recorder.
	Flight *obs.Flight
}

// Engine is a resident, concurrency-safe analysis service over any
// number of named programs. Create with NewEngine; all methods are safe
// for concurrent use.
type Engine struct {
	cfg EngineConfig
	// m and cacheM are the engine's instruments in cfg.Metrics, the one
	// store of its cross-request counts.
	m      *obs.ServerMetrics
	cacheM *obs.CacheMetrics
	mem    *memTier

	mu    sync.Mutex
	progs map[string]*residentProgram
	clock int64 // LRU tick, bumped per request under mu
}

// NewEngine creates a resident engine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return &Engine{
		cfg:    cfg,
		m:      obs.NewServerMetrics(cfg.Metrics),
		cacheM: obs.NewCacheMetrics(cfg.Metrics),
		mem:    newMemTier(),
		progs:  map[string]*residentProgram{},
	}
}

// residentProgram is one named program's resident state. mu serializes
// file-delta application and re-lowering; each Package is an immutable
// snapshot, never mutated, so readers that grabbed one under mu may
// analyze it after releasing mu.
type residentProgram struct {
	name string

	mu    sync.Mutex
	tmemo *gosrc.Memo
	// sets holds the program's lowered file sets, most recent first: the
	// current set, then up to maxRecentLowered displaced ones, so that a
	// file set the program has been at before — an undone edit, a branch
	// toggle, an editor flapping between two buffer states — re-resolves
	// without re-lowering anything. Every refresh stores a freshly built
	// slice, so a dropped set is unreachable at once.
	sets []loweredSet

	// Engine-bookkeeping, guarded by the Engine's mu: Programs reads
	// only these, so a metrics scrape never waits for a re-lower. A
	// holder of mu may take the Engine's mu, never the reverse.
	lastUsed     int64
	cost         int64
	served       int64
	files, funcs int // the current set's sizes
}

// loweredSet is one lowered file set: the exact files and the immutable
// Package they lowered to.
type loweredSet struct {
	files map[string]gosrc.File
	pkg   *Package
}

// maxRecentLowered bounds the displaced lowered file sets a program
// keeps beside its current one: two covers the common flap between a
// state and its edit.
const maxRecentLowered = 2

// current returns the program's current lowered file set, the zero set
// before its first successful request. Callers hold rp.mu.
func (rp *residentProgram) current() loweredSet {
	if len(rp.sets) == 0 {
		return loweredSet{}
	}
	return rp.sets[0]
}

// CheckRequest is one engine request: a file delta against a named
// resident program plus the analysis selection to run on the result.
// It is also the body of gocheckd's POST /v1/check, decoded as is, so
// its JSON names are the wire protocol.
type CheckRequest struct {
	// Program names the resident program; "" means "default". The first
	// request for a name must carry the full file set as Upserts.
	Program string `json:"program,omitempty"`
	// Upserts adds or replaces files by name; Removes drops files.
	// Removes apply first. A request with neither re-checks as-is.
	Upserts []gosrc.File `json:"upserts,omitempty"`
	Removes []string     `json:"removes,omitempty"`

	// Checkers selects registered checkers by name, resolved like
	// gocheck's -checkers list (Resolve); nil means all.
	Checkers []string `json:"checkers,omitempty"`
	// Entries selects entry functions; nil means the package roots.
	Entries []string `json:"entries,omitempty"`
	// Explain is per-request, as in Config.
	Explain bool `json:"explain,omitempty"`

	// TraceID identifies the request in the flight recorder and access
	// logs; empty means the engine mints one when tracing is active. The
	// server sets it, so it is not part of the wire body.
	TraceID string `json:"-"`
}

// Check runs one request. It applies the file delta (re-lowering only
// changed files), analyzes the resulting snapshot, and returns the same
// Report a one-shot Analyze over the same sources would return —
// findings are byte-identical whether telemetry is on or off; tracing
// only adds the json:"-" telemetry fields.
func (e *Engine) Check(req CheckRequest) (*Report, error) {
	t0 := time.Now()
	e.m.Requests.Inc()
	// With a flight recorder the request runs under its own tracer and
	// trace ID, so its span tree can be recorded and persisted
	// independently of other requests.
	var tr *obs.Tracer
	traceID := req.TraceID
	if e.cfg.Flight != nil {
		tr = obs.NewTracer()
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
	}
	program := ProgramName(req.Program)
	sp := tr.Start("request:" + program)
	if traceID != "" {
		sp.SetAttr("trace_id", traceID)
	}
	rep, err := e.check(program, req, tr)
	if err != nil {
		e.m.Errors.Inc()
		sp.SetAttr("error", err.Error())
	}
	sp.Finish()
	e.m.RequestMs.Observe(time.Since(t0).Milliseconds())
	meta := obs.FlightMeta{TraceID: traceID, Program: program, DurUS: time.Since(t0).Microseconds()}
	if err != nil {
		meta.Err = err.Error()
	}
	if rep != nil {
		rep.TraceID = traceID
		// The run counted its own memo lookups; the engine totals are
		// their sums.
		e.m.MemoHits.Add(rep.MemoHits)
		e.m.MemoMisses.Add(rep.MemoMisses)
		meta.MemoHits, meta.MemoMisses = rep.MemoHits, rep.MemoMisses
	}
	e.cfg.Flight.Record(meta, tr)
	return rep, err
}

// ProgramName is the resident program a request or manifest query
// names: "default" for the empty name.
func ProgramName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

func (e *Engine) check(program string, req CheckRequest, tr *obs.Tracer) (*Report, error) {
	checkers, err := Resolve(req.Checkers)
	if err != nil {
		return nil, err
	}
	rp := e.program(program)

	rp.mu.Lock()
	pkg, cost, err := e.refresh(rp, req, tr)
	if err == nil {
		// The program holds this set now, whether or not it analyzes.
		e.mu.Lock()
		rp.files, rp.funcs = len(pkg.Files), len(pkg.Prog.Funcs)
		e.mu.Unlock()
	}
	rp.mu.Unlock()
	if err != nil {
		return nil, err
	}

	cfg := Config{
		Checkers: checkers,
		Entries:  req.Entries,
		Cache:    e.cfg.Cache,
		Trace:    tr,
		Metrics:  e.cfg.Metrics,
		Explain:  req.Explain,
	}
	rep, err := analyze(pkg, cfg, e.mem)
	if err != nil {
		return nil, err
	}
	e.finishRequest(rp, cost)
	return rep, nil
}

// refresh applies the request's file delta under rp.mu and returns the
// Package snapshot to analyze, with the estimated cost of every file
// set the program now holds. State commits only on success: a failed
// delta (parse error, CFG error) leaves the program's file sets in
// place, so a bad push never poisons the resident program.
func (e *Engine) refresh(rp *residentProgram, req CheckRequest, tr *obs.Tracer) (*Package, int64, error) {
	next := map[string]gosrc.File{}
	for name, f := range rp.current().files {
		next[name] = f
	}
	for _, name := range req.Removes {
		delete(next, name)
	}
	for _, f := range req.Upserts {
		next[f.Name] = f
	}
	if len(next) == 0 {
		return nil, 0, fmt.Errorf("analysis: program %q has no files (push the full set first)", rp.name)
	}
	// A file set the program holds moves to the front as it is; any other
	// is lowered over the current one.
	hit := -1
	for i, ls := range rp.sets {
		if sameFiles(next, ls.files) {
			hit = i
			break
		}
	}
	var front loweredSet
	if hit >= 0 {
		front = rp.sets[hit]
	} else {
		t0 := time.Now()
		files := make([]gosrc.File, 0, len(next))
		for _, f := range next {
			files = append(files, f)
		}
		// Sorted name order, matching LoadPaths' deterministic load order.
		sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
		var prev *ir.Program
		if cur := rp.current(); cur.pkg != nil {
			prev = cur.pkg.Prog
		}
		pkg, err := load(files, rp.tmemo, prev, tr)
		if err != nil {
			return nil, 0, err
		}
		e.m.RelowerMs.Observe(time.Since(t0).Milliseconds())
		front = loweredSet{files: next, pkg: pkg}
	}
	sets := append(make([]loweredSet, 0, 1+maxRecentLowered), front)
	cost := estimateCost(front.pkg)
	for i, ls := range rp.sets {
		if i != hit && len(sets) <= maxRecentLowered {
			sets = append(sets, ls)
			cost += estimateCost(ls.pkg)
		}
	}
	rp.sets = sets
	return front.pkg, cost, nil
}

func sameFiles(a, b map[string]gosrc.File) bool {
	if len(a) != len(b) {
		return false
	}
	for name, f := range a {
		if g, ok := b[name]; !ok || g.Src != f.Src {
			return false
		}
	}
	return true
}

// program returns (creating if needed) the named resident program and
// bumps its recency.
func (e *Engine) program(name string) *residentProgram {
	e.mu.Lock()
	defer e.mu.Unlock()
	rp := e.progs[name]
	if rp == nil {
		rp = &residentProgram{name: name, tmemo: gosrc.NewMemo()}
		e.progs[name] = rp
		e.residentGauge()
	}
	e.clock++
	rp.lastUsed = e.clock
	return rp
}

// finishRequest records the program's cost estimate and recency, then
// enforces the memory budget.
func (e *Engine) finishRequest(rp *residentProgram, cost int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clock++
	rp.lastUsed = e.clock
	rp.served++
	rp.cost = cost
	e.evictLocked(rp)
}

// estimateCost approximates a resident program's memory footprint:
// source text plus translation, IR and CFG structures sized roughly
// proportionally to it, plus a per-function overhead for fingerprints,
// summaries and skeleton bookkeeping. Deliberately a coarse upper-ish
// bound — the budget trades resident warmth against memory, it is not
// an allocator.
func estimateCost(pkg *Package) int64 {
	var bytes int64
	for _, f := range pkg.Files {
		bytes += int64(len(f.Src))
	}
	return bytes*8 + int64(len(pkg.Prog.Funcs))*1024
}

// evictLocked drops least-recently-used programs until the estimated
// total fits the budget. The program serving the current request (keep)
// is never evicted. Callers hold e.mu.
func (e *Engine) evictLocked(keep *residentProgram) {
	if e.cfg.MemoryBudget <= 0 {
		return
	}
	for {
		var total int64
		var oldest *residentProgram
		for _, rp := range e.progs {
			total += rp.cost
			if rp == keep {
				continue
			}
			if oldest == nil || rp.lastUsed < oldest.lastUsed {
				oldest = rp
			}
		}
		if total <= e.cfg.MemoryBudget || oldest == nil {
			return
		}
		delete(e.progs, oldest.name)
		e.m.Evictions.Inc()
		e.residentGauge()
	}
}

func (e *Engine) residentGauge() {
	e.m.ResidentPrograms.Set(int64(len(e.progs)))
}

// Manifest returns the named resident program's file set as file name
// -> hex SHA-256 of its source, or an empty map when the program is not
// resident: never pushed, or evicted under the memory budget. Clients
// diff it against their local files to push a minimal delta, so it
// must describe exactly the files the next request starts from.
func (e *Engine) Manifest(program string) map[string]string {
	e.mu.Lock()
	rp := e.progs[ProgramName(program)]
	e.mu.Unlock()
	out := map[string]string{}
	if rp == nil {
		return out
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for name, f := range rp.current().files {
		sum := sha256.Sum256([]byte(f.Src))
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// ProgramInfo describes one resident program for list/metrics
// endpoints.
type ProgramInfo struct {
	Name      string `json:"name"`
	Files     int    `json:"files"`
	Functions int    `json:"functions"`
	CostBytes int64  `json:"cost_bytes"`
	Requests  int64  `json:"requests"`
}

// Programs lists resident programs, sorted by name. It takes no
// program's mu.
func (e *Engine) Programs() []ProgramInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ProgramInfo, 0, len(e.progs))
	for _, rp := range e.progs {
		out = append(out, ProgramInfo{Name: rp.name, Files: rp.files, Functions: rp.funcs, CostBytes: rp.cost, Requests: rp.served})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EngineStats is a point-in-time snapshot of the engine's cross-request
// accounting.
type EngineStats struct {
	Requests         int64 `json:"requests"`
	Errors           int64 `json:"errors"`
	Evictions        int64 `json:"evictions"`
	ResidentPrograms int   `json:"resident_programs"`
	MemoHits         int64 `json:"memo_hits"`
	MemoMisses       int64 `json:"memo_misses"`
	MemoEntries      int   `json:"memo_entries"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	ResolvedFuncs    int64 `json:"resolved_functions"`
}

// Stats reads the engine's server.* and cache.* instruments.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Requests:         e.m.Requests.Value(),
		Errors:           e.m.Errors.Value(),
		Evictions:        e.m.Evictions.Value(),
		ResidentPrograms: int(e.m.ResidentPrograms.Value()),
		MemoHits:         e.m.MemoHits.Value(),
		MemoMisses:       e.m.MemoMisses.Value(),
		MemoEntries:      e.mem.len(),
		CacheHits:        e.cacheM.Hits.Value(),
		CacheMisses:      e.cacheM.Misses.Value(),
		ResolvedFuncs:    e.cacheM.ResolvedFunctions.Value(),
	}
}

// LatencyMS returns the nearest-rank q-quantile of the engine's request
// latency in milliseconds since it started, to bucket granularity (see
// obs.Histogram.Quantile); 0 before the first request.
func (e *Engine) LatencyMS(q float64) int64 { return e.m.RequestMs.Quantile(q) }
