// Resident analysis engine. Engine is the long-lived form of the
// driver: it owns loaded programs (translated sources, lowered IR,
// solved skeletons), the memory tier of the result store, the open
// on-disk cache and the observability registry across any number of
// requests, so a warm re-check after a small edit pays for exactly the
// edit — changed files re-translate through the per-file memo
// (gosrc.Memo), unchanged functions keep their fingerprints
// (ir.NewIncremental), and jobs whose content key is unchanged replay
// from memory without touching disk. An unchanged file set
// short-circuits entirely: the resident Package — including its built
// skeletons — is reused as-is, so identical re-checks never rebuild
// anything.
//
// Concurrency model: a resident program's mutable state (file set,
// translation memo, current Package) is guarded by a per-program mutex
// that serializes delta application and re-lowering; the Package a
// request analyzes is an immutable snapshot, so any number of requests
// analyze concurrently — against the same program or different ones —
// exactly like concurrent one-shot runs over a shared Package. Findings
// stay deterministic because nothing downstream of the snapshot is
// request-ordered: job results are content-keyed, merges happen in job
// order, and stats are sums.
//
// Analyze (the one-shot entry point every existing caller uses) is a
// thin wrapper that routes a single request through a throwaway Engine.
package analysis

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rasc/internal/core"
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/obs"
)

// EngineConfig configures a resident Engine. The zero value is a valid
// minimal engine: no disk cache, no metrics, unbounded memory.
type EngineConfig struct {
	// Cache, when non-nil, backs the engine with the on-disk incremental
	// cache (shared with one-shot runs; keys are identical).
	Cache *Cache
	// NoSkeletonSnapshots disables the frozen-skeleton snapshot path,
	// as in Config.
	NoSkeletonSnapshots bool
	// Opts are the solver options every request runs under. Requests do
	// not choose options: cached and memoized results are keyed by them,
	// and one resident configuration per engine keeps the key space hot.
	Opts core.Options
	// Parallel bounds each request's worker pool; <= 0 means GOMAXPROCS.
	Parallel int
	// MemoryBudget caps the estimated resident-program footprint in
	// bytes; past it, least-recently-used programs are evicted wholesale
	// (their next request reloads from the pushed file set). 0 means no
	// eviction.
	MemoryBudget int64
	// MemoEntries bounds the memory tier of the result store in job
	// records, not bytes: up to MemoEntries records that keep hitting
	// stay in memory, and the tier holds at most twice that. 0 means
	// the default.
	MemoEntries int
	// Metrics, when non-nil, receives the per-run bundles (solver, pdm,
	// cache, driver) plus the engine's server.* bundle.
	Metrics *obs.Registry
	// Trace, when non-nil, records request roots and per-run phase spans
	// into one process-wide tracer. When Flight is set (or a request asks
	// for its trace inline) the engine instead runs each request under
	// its own tracer, so per-request span trees stay separable.
	Trace *obs.Tracer
	// Flight, when non-nil, records every request — trace ID, outcome,
	// duration, memo accounting and full span tree — into the flight
	// recorder.
	Flight *obs.Flight
}

// Engine is a resident, concurrency-safe analysis service over any
// number of named programs. Create with NewEngine; all methods are safe
// for concurrent use.
type Engine struct {
	cfg     EngineConfig
	serverM *obs.ServerMetrics // nil when Metrics is nil
	mem     *memTier

	mu    sync.Mutex
	progs map[string]*residentProgram
	clock int64 // LRU tick, bumped per request under mu

	// Engine-wide accounting, accumulated atomically so concurrent
	// requests never race (CacheStats itself is per-request; these are
	// the cross-request totals).
	requests, errors, evictions         atomic.Int64
	memoHits, memoMisses                atomic.Int64
	cacheHits, cacheMisses, resolvedFns atomic.Int64
	skeletonHits, skeletonMisses        atomic.Int64
}

// NewEngine creates a resident engine.
func NewEngine(cfg EngineConfig) *Engine {
	var sm *obs.ServerMetrics
	if cfg.Metrics != nil {
		sm = obs.NewServerMetrics(cfg.Metrics)
	}
	return &Engine{
		cfg:     cfg,
		serverM: sm,
		mem:     newMemTier(cfg.MemoEntries, sm),
		progs:   map[string]*residentProgram{},
	}
}

// residentProgram is one named program's resident state. mu serializes
// file-delta application and re-lowering; pkg is replaced wholesale (an
// immutable snapshot), never mutated, so readers that grabbed it under
// mu may analyze it after releasing mu.
type residentProgram struct {
	name string

	mu    sync.Mutex
	files map[string]gosrc.File
	tmemo *gosrc.Memo
	pkg   *Package
	// recent keeps the last few displaced lowered snapshots so that a
	// file set the program has been at before — an undone edit, a
	// branch toggle, an editor flapping between two buffer states —
	// re-resolves without re-lowering anything. Entries share FuncDef
	// storage with the translation memo, so the marginal footprint is
	// the IR/CFG structures only; ringCost feeds it to the memory
	// budget regardless.
	recent   []loweredSet
	ringCost atomic.Int64

	// Engine-bookkeeping, guarded by the Engine's mu.
	lastUsed int64
	cost     int64
	served   int64
}

// loweredSet is one previously lowered file set: the exact files and
// the immutable Package they lowered to.
type loweredSet struct {
	files map[string]gosrc.File
	pkg   *Package
}

// maxRecentLowered bounds the per-program ring of displaced lowered
// snapshots: two covers the common flap between a state and its edit.
const maxRecentLowered = 2

// retire pushes the current lowered snapshot into the recent ring and
// refreshes the ring's cost estimate. Callers hold rp.mu.
func (rp *residentProgram) retire() {
	if rp.pkg != nil {
		rp.recent = append(rp.recent, loweredSet{files: rp.files, pkg: rp.pkg})
		if len(rp.recent) > maxRecentLowered {
			rp.recent = rp.recent[len(rp.recent)-maxRecentLowered:]
		}
	}
	var cost int64
	for _, ls := range rp.recent {
		cost += estimateCost(ls.pkg)
	}
	rp.ringCost.Store(cost)
}

// CheckRequest is one engine request: a file delta against a named
// resident program plus the analysis selection to run on the result.
type CheckRequest struct {
	// Program names the resident program; "" means "default". The first
	// request for a name must carry the full file set as Upserts.
	Program string
	// Upserts adds or replaces files by name; Removes drops files.
	// Removes apply first. A request with neither re-checks as-is.
	Upserts []gosrc.File
	Removes []string
	// Reset replaces the program's file set with exactly Upserts instead
	// of applying a delta.
	Reset bool

	// Checkers selects registered checkers by name; nil means all.
	Checkers []string
	// Entries selects entry functions; nil means the package roots.
	Entries []string
	// KeepSuppressed and Explain are per-request, as in Config.
	KeepSuppressed bool
	Explain        bool
	// Parallel overrides the engine's per-request worker bound when > 0.
	Parallel int

	// TraceID identifies the request in the flight recorder and access
	// logs; empty means the engine mints one when tracing is active.
	TraceID string
	// WantTrace asks for the request's Chrome trace inline on
	// Report.TraceJSON even without a flight recorder.
	WantTrace bool
}

// Check runs one request. It applies the file delta (re-lowering only
// changed files), analyzes the resulting snapshot, and returns the same
// Report a one-shot Analyze over the same sources would return —
// findings are byte-identical whether telemetry is on or off; tracing
// only adds the json:"-" telemetry fields.
func (e *Engine) Check(req CheckRequest) (*Report, error) {
	t0 := time.Now()
	e.requests.Add(1)
	if e.serverM != nil {
		e.serverM.Requests.Inc()
	}
	// With a flight recorder (or an inline-trace request) the request
	// runs under its own tracer and trace ID, so its span tree can be
	// recorded, returned and persisted independently of other requests.
	var tr *obs.Tracer
	traceID := req.TraceID
	if e.cfg.Flight != nil || req.WantTrace {
		tr = obs.NewTracer()
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
	}
	sp := e.span(tr, "request:"+programName(req.Program))
	if traceID != "" {
		sp.SetAttr("trace_id", traceID)
	}
	rep, err := e.check(req, tr)
	if err != nil {
		e.errors.Add(1)
		if e.serverM != nil {
			e.serverM.Errors.Inc()
		}
		sp.SetAttr("error", err.Error())
	}
	sp.Finish()
	if e.serverM != nil {
		e.serverM.RequestMs.Observe(time.Since(t0).Milliseconds())
	}
	if rep != nil {
		rep.TraceID = traceID
		if req.WantTrace && tr != nil {
			var buf bytes.Buffer
			if werr := tr.WriteJSON(&buf); werr == nil {
				rep.TraceJSON = buf.Bytes()
			}
		}
	}
	if e.cfg.Flight != nil {
		meta := obs.FlightMeta{
			TraceID: traceID,
			Program: programName(req.Program),
			DurUS:   time.Since(t0).Microseconds(),
		}
		if err != nil {
			meta.Err = err.Error()
		}
		if rep != nil {
			meta.MemoHits, meta.MemoMisses = rep.MemoHits, rep.MemoMisses
		}
		e.cfg.Flight.Record(meta, tr)
	}
	return rep, err
}

func programName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

func (e *Engine) check(req CheckRequest, tr *obs.Tracer) (*Report, error) {
	checkers, err := checkersByName(req.Checkers)
	if err != nil {
		return nil, err
	}
	rp := e.program(programName(req.Program))

	rp.mu.Lock()
	pkg, err := e.refresh(rp, req)
	rp.mu.Unlock()
	if err != nil {
		return nil, err
	}

	parallel := req.Parallel
	if parallel <= 0 {
		parallel = e.cfg.Parallel
	}
	trace := e.cfg.Trace
	if tr != nil {
		trace = tr
	}
	cfg := Config{
		Checkers:            checkers,
		Entries:             req.Entries,
		Parallel:            parallel,
		Opts:                e.cfg.Opts,
		KeepSuppressed:      req.KeepSuppressed,
		Cache:               e.cfg.Cache,
		NoSkeletonSnapshots: e.cfg.NoSkeletonSnapshots,
		Trace:               trace,
		Metrics:             e.cfg.Metrics,
		Explain:             req.Explain,
	}
	rep, err := analyze(pkg, cfg, e.mem)
	if err != nil {
		return nil, err
	}
	e.account(rep)
	e.finishRequest(rp, pkg)
	return rep, nil
}

// refresh applies the request's file delta under rp.mu and returns the
// Package snapshot to analyze. State commits only on success: a failed
// delta (parse error, CFG error) leaves the previous file set and
// Package in place, so a bad push never poisons the resident program.
func (e *Engine) refresh(rp *residentProgram, req CheckRequest) (*Package, error) {
	next := map[string]gosrc.File{}
	if !req.Reset {
		for name, f := range rp.files {
			next[name] = f
		}
	}
	for _, name := range req.Removes {
		delete(next, name)
	}
	for _, f := range req.Upserts {
		next[f.Name] = f
	}
	if len(next) == 0 {
		return nil, fmt.Errorf("analysis: program %q has no files (push the full set first)", rp.name)
	}
	if rp.pkg != nil && sameFiles(next, rp.files) {
		return rp.pkg, nil
	}
	// A file set we've been at before swaps back in without re-lowering;
	// the displaced snapshot takes its slot in the ring.
	for i, ls := range rp.recent {
		if sameFiles(next, ls.files) {
			rp.recent = append(rp.recent[:i], rp.recent[i+1:]...)
			rp.retire()
			rp.files = ls.files
			rp.pkg = ls.pkg
			return ls.pkg, nil
		}
	}

	t0 := time.Now()
	files := make([]gosrc.File, 0, len(next))
	for _, f := range next {
		files = append(files, f)
	}
	// Sorted name order, matching LoadPaths' deterministic load order.
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })

	trn, err := gosrc.TranslateFilesMemo(files, rp.tmemo)
	if err != nil {
		return nil, err
	}
	var prev *ir.Program
	if rp.pkg != nil {
		prev = rp.pkg.Prog
	}
	prog, err := ir.NewIncremental(trn.Prog, ir.Meta{
		Notes:       trn.Notes,
		Ignores:     trn.Ignores,
		FileIgnores: trn.FileIgnores,
		Shared:      trn.Shared,
	}, prev)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Files: files, Prog: prog}
	rp.retire()
	rp.files = next
	rp.pkg = pkg
	if e.serverM != nil {
		e.serverM.RelowerMs.Observe(time.Since(t0).Milliseconds())
	}
	return pkg, nil
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

// finishRequest updates the program's cost estimate and recency, then
// enforces the memory budget.
func (e *Engine) finishRequest(rp *residentProgram, pkg *Package) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clock++
	rp.lastUsed = e.clock
	rp.served++
	rp.cost = estimateCost(pkg) + rp.ringCost.Load()
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
		e.evictions.Add(1)
		if e.serverM != nil {
			e.serverM.Evictions.Inc()
		}
		e.residentGauge()
	}
}

func (e *Engine) residentGauge() {
	if e.serverM != nil {
		e.serverM.ResidentPrograms.Set(int64(len(e.progs)))
	}
}

// account merges one request's memory and cache accounting into the
// engine totals. Per-request stats stay per-request (each run owns its
// counters); the engine-wide view accumulates atomically so concurrent
// request completions never race.
func (e *Engine) account(rep *Report) {
	e.memoHits.Add(rep.MemoHits)
	e.memoMisses.Add(rep.MemoMisses)
	st := rep.Cache
	if st == nil {
		return
	}
	e.cacheHits.Add(int64(st.Hits))
	e.cacheMisses.Add(int64(st.Misses))
	e.resolvedFns.Add(int64(st.ResolvedFunctions))
	e.skeletonHits.Add(int64(st.SkeletonHits))
	e.skeletonMisses.Add(int64(st.SkeletonMisses))
}

// span opens a request-root trace span on the per-request tracer when
// one is active, otherwise on the engine's static tracer; nil-safe.
func (e *Engine) span(tr *obs.Tracer, name string) *obs.Span {
	if tr != nil {
		return tr.Start(name)
	}
	if e.cfg.Trace == nil {
		return nil
	}
	return e.cfg.Trace.Start(name)
}

// checkersByName resolves checker names; nil selects every registered
// checker.
func checkersByName(names []string) ([]*Checker, error) {
	if len(names) == 0 {
		return nil, nil // Analyze defaults to All()
	}
	out := make([]*Checker, 0, len(names))
	for _, name := range names {
		c, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown checker %q", name)
		}
		out = append(out, c)
	}
	return out, nil
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

// Programs lists resident programs, sorted by name.
func (e *Engine) Programs() []ProgramInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ProgramInfo, 0, len(e.progs))
	for _, rp := range e.progs {
		info := ProgramInfo{Name: rp.name, CostBytes: rp.cost, Requests: rp.served}
		// rp.pkg is replaced atomically under rp.mu; a racing re-lower at
		// worst reports the prior snapshot's sizes.
		rp.mu.Lock()
		if rp.pkg != nil {
			info.Files = len(rp.pkg.Files)
			info.Functions = len(rp.pkg.Prog.Funcs)
		}
		rp.mu.Unlock()
		out = append(out, info)
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
	SkeletonHits     int64 `json:"skeleton_hits"`
	SkeletonMisses   int64 `json:"skeleton_misses"`
}

// Stats snapshots the engine accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	resident := len(e.progs)
	e.mu.Unlock()
	return EngineStats{
		Requests:         e.requests.Load(),
		Errors:           e.errors.Load(),
		Evictions:        e.evictions.Load(),
		ResidentPrograms: resident,
		MemoHits:         e.memoHits.Load(),
		MemoMisses:       e.memoMisses.Load(),
		MemoEntries:      e.mem.len(),
		CacheHits:        e.cacheHits.Load(),
		CacheMisses:      e.cacheMisses.Load(),
		ResolvedFuncs:    e.resolvedFns.Load(),
		SkeletonHits:     e.skeletonHits.Load(),
		SkeletonMisses:   e.skeletonMisses.Load(),
	}
}

// Drop removes a resident program, freeing its state. A later request
// for the name starts cold (and must push the full file set).
func (e *Engine) Drop(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.progs[programName(name)]; ok {
		delete(e.progs, programName(name))
		e.residentGauge()
	}
}

// AnalyzePackage runs one request over an externally loaded Package
// through the engine's request path — request accounting, the memory
// tier and latency observation all apply — without making the
// package resident (no delta tracking, no eviction). The cfg is taken
// as given, exactly like the one-shot Analyze.
func (e *Engine) AnalyzePackage(pkg *Package, cfg Config) (*Report, error) {
	t0 := time.Now()
	e.requests.Add(1)
	if e.serverM != nil {
		e.serverM.Requests.Inc()
	}
	rep, err := analyze(pkg, cfg, e.mem)
	if err != nil {
		e.errors.Add(1)
		if e.serverM != nil {
			e.serverM.Errors.Inc()
		}
	} else {
		e.account(rep)
	}
	if e.serverM != nil {
		e.serverM.RequestMs.Observe(time.Since(t0).Milliseconds())
	}
	return rep, err
}
