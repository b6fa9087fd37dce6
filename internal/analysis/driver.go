package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"rasc/internal/core"
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/obs"
	"rasc/internal/pdm"
)

// Package is a loaded and translated set of Go sources, ready to be
// analyzed any number of times.
type Package struct {
	// Files in load order.
	Files []gosrc.File
	// Prog is the lowered IR: the kernel program, its CFG, the call-graph
	// SCC DAG and per-function fingerprints/summary keys, plus the
	// translation metadata (notes, ignore directives, shared variables).
	Prog *ir.Program

	concOnce sync.Once
	conc     *concModel

	// skels caches the property-independent constraint skeleton per entry
	// function, shared read-only by every property checker's job. The
	// cache is keyed by the checker-registry generation and the solver
	// options the skeletons were built under; a mismatch (new checker
	// registered, different Options) drops it wholesale.
	skelMu  sync.Mutex
	skelKey skelCacheKey
	skels   map[string]*skelEntry
}

type skelCacheKey struct {
	gen  int
	opts core.Options
}

type skelEntry struct {
	once sync.Once
	sk   *pdm.Skeleton
	err  error
}

// skeleton returns the cached property-independent skeleton for entry,
// building it on first use. Concurrent callers for the same entry block
// on one build; distinct entries build independently. ob (nil OK)
// records the build as a trace span and feeds the skeleton-layer
// metrics; reuse of an already-built skeleton records nothing.
//
// With a snapshot-enabled store run (st non-nil), the build is first
// attempted as a snapshot decode — reconstructing the solved base layer
// straight from bytes, skipping translation and the solve — and a live
// build stores its snapshot for the next cold process. Snapshot failures
// of any kind demote silently to the live path.
func (p *Package) skeleton(entry string, opts core.Options, ob *obsState, st *storeRun) (*pdm.Skeleton, error) {
	key := skelCacheKey{gen: generation(), opts: opts}
	p.skelMu.Lock()
	if p.skels == nil || p.skelKey != key {
		p.skelKey = key
		p.skels = map[string]*skelEntry{}
	}
	e := p.skels[entry]
	if e == nil {
		e = &skelEntry{}
		p.skels[entry] = e
	}
	p.skelMu.Unlock()
	e.once.Do(func() {
		sp := ob.span("skeleton:" + entry)
		if st != nil && st.snapshots {
			dsp := sp.Child("snapshot.decode")
			sk, ok := st.loadSkeleton(entry)
			dsp.Finish()
			if ok {
				e.sk = sk
				sp.SetAttr("snapshot", "hit")
				sp.SetAttr("deferred", sk.Deferred())
				sp.Finish()
				return
			}
			sp.SetAttr("snapshot", "miss")
		}
		callees := eventCallees()
		e.sk, e.err = pdm.BuildSkeleton(p.Prog, entry, opts,
			func(call *minic.CallExpr, _ string) bool { return callees[call.Name] })
		if e.err == nil {
			sp.SetAttr("deferred", e.sk.Deferred())
			if ob != nil && ob.pdmM != nil {
				ob.pdmM.SkeletonBuilds.Inc()
				ob.pdmM.DeferredStmts.Add(int64(e.sk.Deferred()))
			}
			if st != nil && st.snapshots {
				esp := sp.Child("snapshot.encode")
				st.storeSkeleton(entry, e.sk)
				esp.Finish()
			}
		}
		sp.Finish()
	})
	return e.sk, e.err
}

// Config drives one Analyze run.
type Config struct {
	// Checkers to run; nil means every registered checker.
	Checkers []*Checker
	// Entries are the entry functions; nil means the package roots
	// (defined functions never called by another defined function).
	Entries []string
	// Parallel bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallel int
	// Opts configures the underlying constraint solver.
	Opts core.Options
	// KeepSuppressed reports suppressed diagnostics instead of dropping
	// them (still counted in Report.Suppressed).
	KeepSuppressed bool
	// Cache, when non-nil, enables incremental analysis: per-job results
	// are looked up by content summary before solving and stored after,
	// so repeat runs over unchanged code skip the solver entirely.
	// Suppression is applied to cached results afresh on every run, so
	// //rasc:ignore edits take effect without invalidating anything.
	Cache *Cache
	// NoSkeletonSnapshots disables the frozen-skeleton snapshot path of
	// the cache. By default (false), every live-built entry skeleton is
	// serialized beside the job records and the next process that has to
	// compute a job reconstructs it straight from the bytes instead of
	// re-solving; snapshots are keyed so that any code, option or
	// registry change demotes them to a live build. Only meaningful when
	// Cache is set.
	NoSkeletonSnapshots bool

	// Trace, when non-nil, records every driver phase — skeleton builds,
	// per-job cache lookups, solves and stores, the merge — as spans,
	// exportable as Chrome trace-event JSON (obs.Tracer.WriteJSON).
	Trace *obs.Tracer
	// Metrics, when non-nil, receives solver, skeleton-layer, cache and
	// driver counters for the run (obs.Registry.WriteJSON to export).
	Metrics *obs.Registry
	// Explain attaches a solver-level derivation chain (Provenance) to
	// every diagnostic. Findings and their order are unchanged; only the
	// provenance field is added. Explain runs use distinct cache keys,
	// since cached records store diagnostics verbatim.
	Explain bool
	// Progress, when non-nil, receives rate-limited phase/job progress
	// lines (human consumption only; never part of the report).
	Progress *obs.Progress
}

// LoadPaths loads Go sources from a mix of files, directories and
// recursive "dir/..." patterns, and translates them as one package.
// Files ending in _test.go are skipped. The file order (and therefore
// duplicate-definition resolution) is the sorted path order.
func LoadPaths(paths []string) (*Package, error) {
	files, err := readPathFiles(paths)
	if err != nil {
		return nil, err
	}
	return LoadFiles(files)
}

// ReadPathFiles resolves LoadPaths' path patterns (files, directories,
// recursive "dir/..." trees) and reads the files without translating
// them, in the same sorted order LoadPaths analyzes them in. Server
// clients use it to assemble the file set they push to a resident
// engine.
func ReadPathFiles(paths []string) ([]gosrc.File, error) { return readPathFiles(paths) }

// readPathFiles resolves LoadPaths' path patterns and reads the files.
func readPathFiles(paths []string) ([]gosrc.File, error) {
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, p := range paths {
		switch {
		case strings.HasSuffix(p, "/...") || p == "...":
			root := strings.TrimSuffix(p, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
		default:
			info, err := os.Stat(p)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			if !info.IsDir() {
				// Explicit files are loaded even without a .go suffix.
				if !seen[p] {
					seen[p] = true
					names = append(names, p)
				}
				continue
			}
			entries, err := os.ReadDir(p)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			for _, e := range entries {
				if !e.IsDir() {
					add(filepath.Join(p, e.Name()))
				}
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %v", paths)
	}
	files := make([]gosrc.File, 0, len(names))
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, gosrc.File{Name: name, Src: string(src)})
	}
	return files, nil
}

// LoadFiles translates in-memory sources as one package. Lowering also
// surfaces CFG construction errors (unresolvable labels, stray
// break/continue) at load time, once, instead of per job.
func LoadFiles(files []gosrc.File) (*Package, error) {
	prog, err := gosrc.Lower(files)
	if err != nil {
		return nil, err
	}
	return &Package{Files: files, Prog: prog}, nil
}

// Roots returns the default entry functions: canonical names of defined
// functions that no other defined function calls, sorted; if the call
// graph has no such root (everything is called), every function is an
// entry.
func (p *Package) Roots() []string { return p.Prog.Roots() }

// fileOf maps a (canonical or alias) function name to its source file.
func (p *Package) fileOf(fn string) string { return p.Prog.FileOf(fn) }

// Analyze runs (checker x entry) jobs over a bounded worker pool. The
// property-independent constraint skeleton of each entry is built once
// (first job to need it) and shared read-only: each property job forks
// it and solves only its own event layer. The shared translated program,
// compiled properties and frozen skeletons are read-only, so jobs need
// no locking beyond the skeleton cache's.
//
// With cfg.Cache set, each job's raw result is first looked up by its
// content key — registry fingerprint, solver options, checker, and the
// entry function's transitive summary digest — and solved only on a
// miss. A fully warm run therefore builds no skeleton and solves no
// constraint system at all, yet reproduces identical diagnostics and
// solver statistics; Report.Cache records hit/miss counts and which
// functions had to be re-solved.
func Analyze(pkg *Package, cfg Config) (*Report, error) {
	return NewEngine(EngineConfig{}).AnalyzePackage(pkg, cfg)
}

// analyze is the driver core shared by the one-shot wrapper and the
// resident Engine. Each job consults the result store once — the
// engine's memory tier mem, then the run's disk tier, then a fresh solve
// — and files what it had to fetch or compute in the tiers that lacked
// it, so a warm engine replays jobs without touching disk at all. Both
// tiers hold the same record under the same key, so results are
// byte-identical whichever tier serves them.
func analyze(pkg *Package, cfg Config, mem *memTier) (*Report, error) {
	checkers := cfg.Checkers
	if len(checkers) == 0 {
		checkers = All()
	}
	entries := cfg.Entries
	if len(entries) == 0 {
		entries = pkg.Roots()
	}
	for _, e := range entries {
		if _, ok := pkg.Prog.ByName[e]; !ok {
			return nil, fmt.Errorf("analysis: entry function %q not defined", e)
		}
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ob := newObsState(&cfg)
	ob.recordSpecMetrics(checkers)
	st := newStoreRun(mem, pkg, entries, &cfg, ob)

	type job struct {
		checker *Checker
		entry   string
	}
	jobs := make([]job, 0, len(checkers)*len(entries))
	for _, c := range checkers {
		for _, e := range entries {
			jobs = append(jobs, job{c, e})
		}
	}
	if ob != nil {
		ob.progress.Phasef("analyzing: %d checker(s) x %d entry(ies), %d job(s)",
			len(checkers), len(entries), len(jobs))
		ob.progress.StartCount("jobs", len(jobs))
	}
	keys := make([]recordKey, len(jobs))
	results := make([]jobRecord, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c, e := jobs[i].checker, jobs[i].entry
				k := st.key(c, e)
				keys[i] = k
				// Memory is consulted before the job span opens: a memory
				// hit is a map lookup, and spanning each of them would put
				// the always-on flight recorder's cost on the fully-warm
				// hot path (hundreds of span allocations per request for
				// sub-microsecond work). Jobs that actually look at disk or
				// solve — the ones that make a request slow and worth
				// inspecting — keep their full span tree; the request's
				// memo hit/miss counts cover the rest.
				if rec, ok := st.recall(k); ok {
					results[i] = rec
					ob.jobDone(false)
					continue
				}
				sp := ob.span("job:" + c.Name + "/" + e)
				rec, ok := st.load(k, sp)
				if !ok {
					ssp := sp.Child("solve")
					rec, errs[i] = runJob(pkg, c, e, cfg.Opts, ob, st)
					ssp.Finish()
					if errs[i] == nil {
						st.store(k, rec)
					}
				}
				results[i] = rec
				sp.Finish()
				ob.jobDone(!ok)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	st.flush(keys, results, errs, ob)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Notes:      pkg.Prog.Notes,
		Files:      len(pkg.Files),
		Functions:  len(pkg.Prog.Funcs),
		Entries:    entries,
		Jobs:       len(jobs),
		Cache:      st.finish(),
		MemoHits:   st.memHits.Load(),
		MemoMisses: st.memMisses.Load(),
	}
	// Aggregate solver statistics; a sum is independent of completion
	// order, so the report stays deterministic under any -parallel. Job
	// stats are per-property deltas; each entry's shared skeleton is
	// counted once, from the base stats its first property job carries.
	based := map[string]bool{}
	for i, rec := range results {
		rep.Solver.add(rec.Stats)
		if e := jobs[i].entry; jobs[i].checker.Run == nil && !based[e] {
			based[e] = true
			rep.Solver.add(rec.Base)
		}
	}
	for _, c := range checkers {
		rep.Checkers = append(rep.Checkers, c.Name)
	}
	sort.Strings(rep.Checkers)
	// Merge in job order (deterministic regardless of completion order),
	// dedup across entries, and apply suppression.
	msp := ob.span("merge")
	seen := map[string]bool{}
	for _, rec := range results {
		for _, d := range rec.Diagnostics {
			k := d.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if pkg.suppressed(&d) {
				rep.Suppressed++
				if !cfg.KeepSuppressed {
					continue
				}
			}
			rep.Diagnostics = append(rep.Diagnostics, d)
		}
	}
	sortDiagnostics(rep.Diagnostics)
	msp.SetAttr("diagnostics", len(rep.Diagnostics))
	msp.Finish()
	if ob != nil && ob.driverM != nil {
		ob.driverM.Diagnostics.Add(int64(len(rep.Diagnostics)))
	}
	if ob != nil {
		ob.progress.Phasef("done: %d finding(s)", len(rep.Diagnostics))
	}
	return rep, nil
}

// add folds one solver-stats record into the totals.
func (s *SolverStats) add(st core.Stats) {
	s.Vars += st.Vars
	s.ConsNodes += st.ConsNodes
	s.Edges += st.Edges
}

// suppressed reports whether a //rasc:ignore comment on the diagnostic's
// line, or a //rasc:ignore-file comment in its file, covers its checker.
func (p *Package) suppressed(d *Diagnostic) bool {
	if names, ok := p.Prog.FileIgnores[d.File]; ok && coversChecker(names, d.Checker) {
		return true
	}
	if lines, ok := p.Prog.Ignores[d.File]; ok {
		if names, ok := lines[d.Line]; ok && coversChecker(names, d.Checker) {
			return true
		}
	}
	return false
}

// coversChecker: an empty directive list suppresses every checker.
func coversChecker(names []string, checker string) bool {
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if n == checker {
			return true
		}
	}
	return false
}

// runJob executes one (checker, entry) job — a constraint solve for
// property checkers, a concurrency-model query for Run checkers — and
// maps the result to a job record: diagnostics, the property's layered
// solver statistics and the shared skeleton's base statistics. ob (nil
// OK) supplies metric hooks and the explain flag; with explain on, every
// diagnostic leaves with a non-empty provenance chain, so stored records
// round-trip explain output unchanged. st (nil OK) supplies skeleton
// snapshots.
func runJob(pkg *Package, c *Checker, entry string, opts core.Options, ob *obsState, st *storeRun) (jobRecord, error) {
	if c.Run != nil {
		ds := c.Run(pkg, c, entry)
		if ob.explainOn() {
			ensureProvenance(ds)
		}
		return jobRecord{Diagnostics: ds}, nil
	}
	prop, events := c.compiled()
	sk, err := pkg.skeleton(entry, opts, ob, st)
	if err != nil {
		return jobRecord{}, fmt.Errorf("analysis: %s/%s: %w", c.Name, entry, err)
	}
	res, err := sk.CheckObs(prop, events, ob.pdmObs())
	if err != nil {
		return jobRecord{}, fmt.Errorf("analysis: %s/%s: %w", c.Name, entry, err)
	}
	rec := jobRecord{Stats: res.Sys.Stats().Minus(res.Base), Base: res.Base}
	switch c.Mode {
	case ModeLeakAtExit:
		rec.Diagnostics = leakDiagnostics(pkg, c, entry, res, events)
	default:
		rec.Diagnostics = violationDiagnostics(pkg, c, entry, res)
	}
	if ob.explainOn() {
		ensureProvenance(rec.Diagnostics)
	}
	return rec, nil
}

func violationDiagnostics(pkg *Package, c *Checker, entry string, res *pdm.Result) []Diagnostic {
	var out []Diagnostic
	for _, v := range res.Violations {
		d := Diagnostic{
			Checker:  c.Name,
			Severity: c.Severity,
			File:     pkg.fileOf(v.Fn),
			Line:     v.Line,
			Message:  c.message(v.Label),
			Label:    v.Label,
			May:      v.May,
			Entry:    entry,
		}
		for _, tp := range v.Trace {
			d.Trace = append(d.Trace, TraceStep{
				File:  pkg.fileOf(tp.Fn),
				Fn:    tp.Fn,
				Line:  tp.Line,
				Enter: tp.Enter,
			})
		}
		d.Provenance = provDiag(pkg, v.Provenance)
		out = append(out, d)
	}
	return out
}

// provDiag positions a pdm provenance chain in the loaded sources.
func provDiag(pkg *Package, prov []pdm.ProvStep) []ProvStep {
	if len(prov) == 0 {
		return nil
	}
	out := make([]ProvStep, len(prov))
	for i, ps := range prov {
		out[i] = ProvStep{
			File:  pkg.fileOf(ps.Fn),
			Fn:    ps.Fn,
			Line:  ps.Line,
			Rule:  ps.Rule,
			Annot: ps.Annot,
		}
	}
	return out
}

// leakDiagnostics reports each label still accepting at the entry's
// exit, positioned at the earliest event that mentions the label (its
// acquisition site).
func leakDiagnostics(pkg *Package, c *Checker, entry string, res *pdm.Result, events *minic.EventMap) []Diagnostic {
	labels, mayOf := res.OpenInstancesAtExitDetail(entry)
	if len(labels) == 0 {
		return nil
	}
	type site struct {
		fn   string
		line int
	}
	// Restrict candidate sites to functions in the entry's call-graph
	// closure: for package-level resources (a shared semaphore, a pool)
	// the same label is touched by unrelated functions, and the finding
	// should point into the entry being reported.
	inClosure := pkg.Prog.ClosureNodes(entry)
	sites := map[string]site{}
	for _, n := range res.CFG().Nodes {
		if n.Kind != minic.NAction || !inClosure[n.ID] {
			continue
		}
		ev, ok := events.Match(n.Call, n.AssignTo)
		if !ok || ev.Label == "" {
			continue
		}
		if s, ok := sites[ev.Label]; !ok || n.Line < s.line {
			sites[ev.Label] = site{n.Fn, n.Line}
		}
	}
	var out []Diagnostic
	for _, lbl := range labels {
		s, ok := sites[lbl]
		if !ok {
			// No event site (shouldn't happen): fall back to the entry
			// function's definition line.
			s = site{entry, pkg.Prog.MC.ByName[entry].Line}
		}
		out = append(out, Diagnostic{
			Checker:  c.Name,
			Severity: c.Severity,
			File:     pkg.fileOf(s.fn),
			Line:     s.line,
			Message:  c.message(lbl),
			Label:    lbl,
			May:      mayOf[lbl],
			Entry:    entry,
			// ExitProvenance returns nil unless the run was checked with
			// explain on.
			Provenance: provDiag(pkg, res.ExitProvenance(entry, lbl)),
		})
	}
	return out
}
