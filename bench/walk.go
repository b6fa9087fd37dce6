package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/core"
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/obs"
	"rasc/internal/pdm"
	"rasc/internal/server"
	"rasc/internal/spec"
)

// walker is the traced run's state: a tracer the benchmark owns, and
// the durations each kind of call contributed. The program itself is
// not traced; spans wrap the benchmark's calls into each module's
// public functions.
type walker struct {
	tr      *obs.Tracer
	samples map[string][]float64 // metric name -> milliseconds per call
}

// call runs fn as one span named after the API it calls and records
// its duration under metric.
func (w *walker) call(parent *obs.Span, api, metric string, fn func() error) error {
	sp := parent.Child(api)
	start := time.Now()
	err := fn()
	w.samples[metric] = append(w.samples[metric], ms(time.Since(start)))
	sp.Finish()
	if err != nil {
		return fmt.Errorf("%s: %w", api, err)
	}
	return nil
}

func (w *walker) sum(metric string) float64 {
	var s float64
	for _, v := range w.samples[metric] {
		s += v
	}
	return s
}

// addMedian reports a per-call median with its call count.
func (w *walker) addMedian(r *result, metric string) {
	r.add(metric, median(w.samples[metric]), "ms", len(w.samples[metric]))
}

// checker is a property checker compiled once, outside every span.
type checker struct {
	prop   *spec.Property
	events *minic.EventMap
}

// runTraced is the traced run: one walk through every layer of the
// checker, in-process, over the seed's inputs, reporting per-layer
// metrics. The walk is the same for every workload except for the edit
// stream the engine and server layers replay: server-flip replays its
// undo/redo toggle, every other workload a never-seen edit per request.
// Layers a workload's own path skips are walked anyway, so every metric
// is measured in every run; README.md maps each metric to the workload
// whose end-to-end numbers it explains.
func runTraced(cfg config, r *result) error {
	c, err := newCorpus(cfg.seed, cfg.files)
	if err != nil {
		return err
	}
	ref, err := newReference(cfg.refs, c.files)
	if err != nil {
		return err
	}
	dir, release, err := scratchDir(cfg.root, cfg.workload+"-traced")
	if err != nil {
		return err
	}
	defer release()
	// Per-layer times are raw; the reference job's time, measured before
	// the walk, says how fast the machine was.
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	for range setupRepeats {
		if _, err := cal.run(); err != nil {
			return err
		}
	}
	r.add("bench.reference_ms", median(cal.ms), "ms", len(cal.ms))

	w := &walker{tr: obs.NewTracer(), samples: map[string][]float64{}}
	root := w.tr.Start("walk " + cfg.workload)

	pkg, err := w.frontEnd(root, r, c)
	if err != nil {
		return err
	}
	if err := w.layers(root, r, pkg); err != nil {
		return err
	}
	if err := w.analyze(root, r, c, ref, filepath.Join(dir, "cache")); err != nil {
		return err
	}
	edits := stream(c.novel(cfg.seed, 0))
	if cfg.workload == "server-flip" {
		edits = c.flip(cfg.seed, 0)
	}
	if err := w.replay(root, r, c, ref, edits, dir, cfg.seconds); err != nil {
		return err
	}
	if err := w.table1(root, r, cfg.refs, cfg.seed); err != nil {
		return err
	}
	root.Finish()

	var buf bytes.Buffer
	if err := w.tr.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.traceOut, buf.Bytes(), 0o644); err != nil {
		return err
	}
	r.check(obs.ValidateTraceJSON(buf.Bytes()))
	r.notef("trace written to %s (open it in https://ui.perfetto.dev)", cfg.traceOut)
	return nil
}

// frontEnd translates and lowers the whole corpus three times.
func (w *walker) frontEnd(root *obs.Span, r *result, c *corpus) (*analysis.Package, error) {
	ph := root.Child("gosrc+ir")
	defer ph.Finish()
	var prog *ir.Program
	for range 3 {
		var trn *gosrc.Translation
		err := w.call(ph, "gosrc.TranslateFiles", "gosrc.translate_ms", func() (err error) {
			trn, err = gosrc.TranslateFiles(c.files)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = w.call(ph, "ir.New", "ir.lower_ms", func() (err error) {
			prog, err = ir.New(trn.Prog, metaOf(trn))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	w.addMedian(r, "gosrc.translate_ms")
	w.addMedian(r, "ir.lower_ms")
	return &analysis.Package{Files: c.files, Prog: prog}, nil
}

// layers builds every entry's skeleton, round-trips it through a
// snapshot, layers every property checker on it and runs every model
// checker: the work a cold Analyze does, call by call, at parallelism 1.
func (w *walker) layers(root *obs.Span, r *result, pkg *analysis.Package) error {
	var props []checker
	var models []*analysis.Checker
	callees := map[string]bool{}
	for _, ch := range analysis.All() {
		if ch.Run != nil {
			models = append(models, ch)
			continue
		}
		p := checker{ch.NewProperty(), ch.NewEvents()}
		for _, rule := range p.events.Rules {
			callees[rule.Callee] = true
		}
		props = append(props, p)
	}
	maybeEvent := func(call *minic.CallExpr, _ string) bool { return callees[call.Name] }
	prog, entries := pkg.Prog, pkg.Roots()

	ph := root.Child("pdm+snapshot")
	skels := make([]*pdm.Skeleton, len(entries))
	var vars, edges, snapBytes int
	for i, e := range entries {
		err := w.call(ph, "pdm.BuildSkeleton", "pdm.skeleton_ms", func() (err error) {
			skels[i], err = pdm.BuildSkeleton(prog, e, core.Options{}, maybeEvent)
			return err
		})
		if err != nil {
			return err
		}
		base := skels[i].BaseStats()
		vars += base.Vars
		edges += base.Edges
		var data []byte
		w.call(ph, "pdm.Skeleton.Snapshot", "snapshot.encode_ms", func() error {
			data = skels[i].Snapshot()
			return nil
		})
		snapBytes += len(data)
		err = w.call(ph, "pdm.LoadSkeleton", "snapshot.decode_ms", func() error {
			_, err := pdm.LoadSkeleton(data, prog, e, core.Options{})
			return err
		})
		if err != nil {
			return err
		}
	}
	for _, p := range props {
		for _, sk := range skels {
			err := w.call(ph, "pdm.Skeleton.Check", "pdm.layer_ms", func() error {
				_, err := sk.Check(p.prop, p.events)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	ph.Finish()

	ph = root.Child("analysis model checkers")
	for _, m := range models {
		for _, e := range entries {
			w.call(ph, "analysis.Checker.Run "+m.Name, "analysis.model_ms", func() error {
				m.Run(pkg, m, e)
				return nil
			})
		}
	}
	ph.Finish()

	r.add("ir.funcs", float64(len(prog.Funcs)), "count", 1)
	r.add("ir.cfg_nodes", float64(len(prog.Graph.Nodes)), "count", 1)
	w.addMedian(r, "pdm.skeleton_ms")
	r.add("pdm.skeleton_vars", float64(vars), "count", len(entries))
	r.add("pdm.skeleton_edges", float64(edges), "count", len(entries))
	w.addMedian(r, "pdm.layer_ms")
	w.addMedian(r, "analysis.model_ms")
	w.addMedian(r, "snapshot.encode_ms")
	w.addMedian(r, "snapshot.decode_ms")
	r.add("snapshot.bytes", float64(snapBytes), "bytes", len(entries))
	return nil
}

// analyze runs a cold Analyze into a fresh cache, then a warm one over
// a freshly loaded Package, and renders the report. The cold run is the
// whole the layer calls above are parts of: bench.attributed_ratio is
// their sum over it, and should sit near 1.
func (w *walker) analyze(root *obs.Span, r *result, c *corpus, ref *reference, cacheDir string) error {
	ph := root.Child("analysis")
	defer ph.Finish()
	cache, err := analysis.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var report analysis.Report // rendered below, without cache statistics as gocheck renders it
	for _, run := range []struct {
		api, metric string
		cfg         analysis.Config
	}{
		{"analysis.Analyze cold", "analysis.analyze_cold_ms", analysis.Config{Parallel: 1, Cache: cache, Metrics: reg}},
		{"analysis.Analyze warm", "analysis.analyze_warm_ms", analysis.Config{Parallel: 1, Cache: cache}},
	} {
		pkg, err := analysis.LoadFiles(c.files)
		if err != nil {
			return err
		}
		runtime.GC()
		var rep *analysis.Report
		err = w.call(ph, run.api, run.metric, func() (err error) {
			rep, err = analysis.Analyze(pkg, run.cfg)
			return err
		})
		if err != nil {
			return err
		}
		r.check(ref.compare(rep))
		report = *rep
		report.Cache = nil
	}
	for range 5 {
		w.call(ph, "analysis.Report.SARIF", "analysis.render_sarif_ms", func() error {
			return report.SARIF(new(bytes.Buffer))
		})
		w.call(ph, "analysis.Report.JSON", "analysis.render_json_ms", func() error {
			return report.JSON(new(bytes.Buffer))
		})
	}
	size, err := dirSize(cacheDir)
	if err != nil {
		return err
	}

	cold := w.sum("analysis.analyze_cold_ms")
	parts := w.sum("pdm.skeleton_ms") + w.sum("pdm.layer_ms") + w.sum("analysis.model_ms") + w.sum("snapshot.encode_ms")
	w.addMedian(r, "analysis.analyze_cold_ms")
	r.add("bench.attributed_ratio", parts/cold, "ratio", 1)
	w.addMedian(r, "analysis.analyze_warm_ms")
	r.add("analysis.cache_bytes", float64(size), "bytes", 1)
	w.addMedian(r, "analysis.render_sarif_ms")
	w.addMedian(r, "analysis.render_json_ms")
	solver := obs.NewSolverMetrics(reg) // interned: the cold run's counters
	r.add("core.worklist_pushes", float64(solver.WorklistPushes.Value()), "count", 1)
	r.add("core.edges_added", float64(solver.EdgesAdded.Value()), "count", 1)
	r.add("core.compositions", float64(solver.Compositions.Value()), "count", 1)
	r.add("core.cycle_elims", float64(solver.CycleElims.Value()), "count", 1)
	r.notef("cold Analyze %.1f ms: skeletons %.1f, layers %.1f, model checkers %.1f, snapshot encodes %.1f ms",
		cold, w.sum("pdm.skeleton_ms"), w.sum("pdm.layer_ms"), w.sum("analysis.model_ms"), w.sum("snapshot.encode_ms"))
	return nil
}

// compare is checkResponse's in-process form.
func (ref *reference) compare(rep *analysis.Report) error {
	if !ref.sameReport(rep) {
		return errors.New("report differs from the reference")
	}
	return nil
}

// replay drives the workload's edit stream for the given time through
// the front end's incremental path, an in-process Engine and a server
// handler on loopback. The engine and the handler each have their own
// cache and are configured as gocheckd configures its engine, so
// server.overhead_ms is the cost of the HTTP layer alone.
func (w *walker) replay(root *obs.Span, r *result, c *corpus, ref *reference, edits stream, dir string, d time.Duration) error {
	eng, err := daemonEngine(filepath.Join(dir, "engine"))
	if err != nil {
		return err
	}
	srvEng, err := daemonEngine(filepath.Join(dir, "server"))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.NewHandler(server.HandlerConfig{
		Engine:   srvEng.Engine,
		Registry: srvEng.reg,
		Flight:   srvEng.flight,
		Log:      obs.NewLogger(io.Discard, obs.LevelError),
	}).Root()}
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	defer func() { srv.Close(); <-served }()

	cl := &client{name: "c0", ref: ref}
	cl.connect(ln.Addr().String())
	if _, err := eng.Check(analysis.CheckRequest{Program: cl.name, Upserts: c.files}); err != nil {
		return err
	}
	if !r.check(cl.push(c.files)) {
		return fmt.Errorf("seed push: %s", r.problems[len(r.problems)-1])
	}
	st := c.state()
	memo := gosrc.NewMemo()
	base, err := gosrc.TranslateFilesMemo(st.files(), memo)
	if err != nil {
		return err
	}
	prev, err := ir.New(base.Prog, metaOf(base))
	if err != nil {
		return err
	}

	ph := root.Child("replay")
	defer ph.Finish()
	var dirty, memoHits, memoMisses, cacheHits, cacheMisses, resolved, overhead, size []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for ; (n < 4 || time.Since(start) < d) && !live.stopped(); n++ {
		f := st.apply(edits.next())
		var trn *gosrc.Translation
		err := w.call(ph, "gosrc.TranslateFilesMemo", "gosrc.translate_edit_ms", func() (err error) {
			trn, err = gosrc.TranslateFilesMemo(st.files(), memo)
			return err
		})
		if err != nil {
			return err
		}
		var next *ir.Program
		err = w.call(ph, "ir.NewIncremental", "ir.incremental_ms", func() (err error) {
			next, err = ir.NewIncremental(trn.Prog, metaOf(trn), prev)
			return err
		})
		if err != nil {
			return err
		}
		dirty = append(dirty, float64(dirtyEntries(prev, next)))
		prev = next

		inProcess := func() error {
			var rep *analysis.Report
			err := w.call(ph, "analysis.Engine.Check", "analysis.engine_check_ms", func() (err error) {
				rep, err = eng.Check(analysis.CheckRequest{Program: cl.name, Upserts: []gosrc.File{f}})
				return err
			})
			if err != nil {
				return err
			}
			memoHits = append(memoHits, float64(rep.MemoHits))
			memoMisses = append(memoMisses, float64(rep.MemoMisses))
			if rep.Cache != nil {
				cacheHits = append(cacheHits, float64(rep.Cache.Hits))
				cacheMisses = append(cacheMisses, float64(rep.Cache.Misses))
				resolved = append(resolved, float64(rep.Cache.ResolvedFunctions))
			}
			return ref.compare(rep)
		}
		overHTTP := func() error {
			body, err := json.Marshal(cl.body([]gosrc.File{f}))
			if err != nil {
				return err
			}
			var respSize int
			err = w.call(ph, "POST /v1/check", "server.roundtrip_ms", func() (err error) {
				_, respSize, err = cl.send(body)
				return err
			})
			size = append(size, float64(respSize))
			return err
		}
		// The two sides take turns going first, so that what the first
		// one warms (page cache, CPU caches) favours neither.
		first, second := inProcess, overHTTP
		if n%2 == 1 {
			first, second = overHTTP, inProcess
		}
		okFirst := r.check(first())
		if r.check(second()) && okFirst {
			rt, en := w.samples["server.roundtrip_ms"], w.samples["analysis.engine_check_ms"]
			overhead = append(overhead, rt[len(rt)-1]-en[len(en)-1])
		}
	}
	runtime.ReadMemStats(&after)

	w.addMedian(r, "gosrc.translate_edit_ms")
	w.addMedian(r, "ir.incremental_ms")
	r.add("ir.dirty_entries", median(dirty), "count", len(dirty))
	w.addMedian(r, "analysis.engine_check_ms")
	r.add("analysis.memo_hits", median(memoHits), "count", len(memoHits))
	r.add("analysis.memo_misses", median(memoMisses), "count", len(memoMisses))
	r.add("analysis.memo_hit_ratio", ratio(memoHits, memoMisses), "ratio", len(memoHits))
	r.add("analysis.cache_hits", median(cacheHits), "count", len(cacheHits))
	r.add("analysis.cache_misses", median(cacheMisses), "count", len(cacheMisses))
	r.add("analysis.cache_hit_ratio", ratio(cacheHits, cacheMisses), "ratio", len(cacheHits))
	r.add("analysis.resolved_functions", median(resolved), "count", len(resolved))
	w.addMedian(r, "server.roundtrip_ms")
	r.add("server.overhead_ms", median(overhead), "ms", len(overhead))
	r.add("server.response_bytes", median(size), "bytes", len(size))
	r.add("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(n), "MB", n)
	r.add("go.gc_count", float64(after.NumGC-before.NumGC)/float64(n), "count", n)
	return nil
}

// engineAndTelemetry is an Engine with the registry and flight recorder
// gocheckd gives it.
type engineAndTelemetry struct {
	*analysis.Engine
	reg    *obs.Registry
	flight *obs.Flight
}

func daemonEngine(cacheDir string) (engineAndTelemetry, error) {
	cache, err := analysis.OpenCache(cacheDir)
	if err != nil {
		return engineAndTelemetry{}, err
	}
	reg := obs.NewRegistry()
	flight := obs.NewFlight(obs.FlightConfig{Recent: 64, Slowest: 8, Metrics: reg})
	eng := analysis.NewEngine(analysis.EngineConfig{Cache: cache, Metrics: reg, Flight: flight})
	return engineAndTelemetry{eng, reg, flight}, nil
}

// table1 checks each Table 1 program once with pdm.Check and compares
// the verdicts with MOPS.
func (w *walker) table1(root *obs.Span, r *result, rc *refCache, seed int64) error {
	progs := table1Programs(seed)
	if err := parseAll(progs); err != nil {
		return err
	}
	tp := newTable1Property()
	ph := root.Child("table1")
	verdicts := make([]bool, len(progs))
	var vars, edges, reach int
	for i, p := range progs {
		runtime.GC()
		var res *pdm.Result
		err := w.call(ph, "pdm.Check "+p.row, "pdm.table1_check_ms."+p.row, func() (err error) {
			res, err = tp.check(p.prog)
			return err
		})
		if err != nil {
			return err
		}
		st := res.Sys.Stats()
		vars += st.Vars
		edges += st.Edges
		reach += st.Reach
		verdicts[i] = len(res.Violations) > 0
	}
	ph.Finish()
	want, err := tp.oracle(rc, progs)
	if err != nil {
		return err
	}
	r.check(compareVerdicts(progs, verdicts, want))
	for _, row := range []string{"vixiecron", "at", "sendmail", "apache"} {
		m := "pdm.table1_check_ms." + row
		r.add(m, w.sum(m), "ms", len(w.samples[m]))
	}
	r.add("pdm.table1_vars", float64(vars), "count", len(progs))
	r.add("pdm.table1_edges", float64(edges), "count", len(progs))
	r.add("pdm.table1_reach", float64(reach), "count", len(progs))
	return nil
}

func metaOf(t *gosrc.Translation) ir.Meta {
	return ir.Meta{Notes: t.Notes, Ignores: t.Ignores, FileIgnores: t.FileIgnores, Shared: t.Shared}
}

// dirtyEntries counts next's entries whose summary differs from prev's.
func dirtyEntries(prev, next *ir.Program) int {
	n := 0
	for _, e := range next.Roots() {
		old, ok := prev.ByName[e]
		if !ok || old.Summary != next.ByName[e].Summary {
			n++
		}
	}
	return n
}

// ratio is Σhits / (Σhits + Σmisses), 0 when nothing was looked up.
func ratio(hits, misses []float64) float64 {
	var h, m float64
	for _, v := range hits {
		h += v
	}
	for _, v := range misses {
		m += v
	}
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
