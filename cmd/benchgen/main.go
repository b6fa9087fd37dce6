// Command benchgen emits synthetic mini-C workloads (the Table 1
// substitution programs and taint workloads) to stdout.
//
// Usage:
//
//	benchgen [-kind priv|taint|go] [-seed N] [-functions N] [-stmts N]
//	         [-unsafe N] [-full]
//	benchgen -kind go -gofiles 8 -outdir dir   # multi-file Go package
//	benchgen -row "Sendmail 8.12.8"      # a Table 1 package's program
//	benchgen -list                        # list Table 1 rows
//	benchgen -bench-json BENCH_analysis.json   # run the driver benchmark
//	benchgen -core-json BENCH_core.json [-iters N]   # solver microbenchmarks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/core"
	"rasc/internal/corebench"
	"rasc/internal/gosrc"
	"rasc/internal/obs"
	"rasc/internal/synth"
)

func main() {
	kind := flag.String("kind", "priv", "workload kind: priv or taint")
	seed := flag.Int64("seed", 1, "random seed")
	functions := flag.Int("functions", 10, "number of functions")
	stmts := flag.Int("stmts", 30, "statements per function")
	unsafe := flag.Int("unsafe", 1, "injected violations")
	safe := flag.Int("safe", 3, "injected safe patterns")
	full := flag.Bool("full", false, "use the full (11-state) property vocabulary")
	row := flag.String("row", "", "generate a named Table 1 package program")
	gofiles := flag.Int("gofiles", 4, "number of Go files (-kind go)")
	outdir := flag.String("outdir", "", "write -kind go files into this directory")
	list := flag.Bool("list", false, "list Table 1 rows")
	benchJSON := flag.String("bench-json", "", "generate a Go corpus, run the analysis driver, write timing/findings JSON to this path")
	coreJSON := flag.String("core-json", "", "run the solver-only microbenchmark suite, write timing JSON to this path")
	iters := flag.Int("iters", 5, "timed iterations per core microbenchmark (-core-json)")
	flag.Parse()

	if *benchJSON != "" {
		if err := runBench(*benchJSON, *seed, *gofiles, *functions, *stmts, *unsafe); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		return
	}
	if *coreJSON != "" {
		if err := runCoreBench(*coreJSON, *iters); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range synth.Table1() {
			fmt.Printf("%-18s %6d lines, %d program(s)\n", r.Name, r.Lines, r.Programs)
		}
		return
	}
	if *row != "" {
		for _, r := range synth.Table1() {
			if r.Name == *row {
				fmt.Print(synth.Generate(r.Config))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "benchgen: unknown row %q (try -list)\n", *row)
		os.Exit(1)
	}
	switch *kind {
	case "priv":
		fmt.Print(synth.Generate(synth.Config{
			Seed: *seed, Functions: *functions, StmtsPerFn: *stmts,
			CallProb: 0.12, BranchProb: 0.15, LoopProb: 0.06,
			SafePatterns: *safe, UnsafePatterns: *unsafe, FullProperty: *full,
		}))
	case "taint":
		fmt.Print(synth.GenerateTaint(synth.TaintConfig{
			Seed: *seed, Functions: *functions, StmtsPerFn: *stmts,
			CallProb: 0.12, Tainted: *unsafe, Cleaned: *safe,
		}))
	case "go":
		files := synth.GenerateGo(synth.GoConfig{
			Seed:          *seed,
			Files:         *gofiles,
			FuncsPerFile:  *functions,
			StmtsPerFn:    *stmts,
			UnsafePerFile: *unsafe,
		})
		if *outdir == "" {
			for _, f := range files {
				fmt.Printf("// ---- %s ----\n%s", f.Name, f.Src)
			}
			return
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		for _, f := range files {
			path := filepath.Join(*outdir, f.Name)
			if err := os.WriteFile(path, []byte(f.Src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchgen:", err)
				os.Exit(1)
			}
			fmt.Println(path)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgen: unknown kind", *kind)
		os.Exit(2)
	}
}

// benchResult is the schema of the -bench-json report. Solver totals
// come from the driver's summed per-job constraint-system stats; the
// model-based checkers (race, lockorder) contribute findings but no
// constraints. Every field except the wall times is deterministic for a
// fixed seed: slices are sorted, and by_severity relies on
// encoding/json's sorted map-key rendering.
type benchResult struct {
	Corpus struct {
		Seed      int64 `json:"seed"`
		Files     int   `json:"files"`
		Functions int   `json:"functions"`
	} `json:"corpus"`
	WallMS     float64              `json:"wall_ms"`
	Jobs       int                  `json:"jobs"`
	Checkers   []string             `json:"checkers"`
	Findings   int                  `json:"findings"`
	BySeverity map[string]int       `json:"by_severity"`
	Solver     analysis.SolverStats `json:"solver"`
	// Cache measures the incremental cache: a cold run populating a fresh
	// cache directory, then a warm run over an identical fresh Package.
	// The warm run must hit on every lookup, re-solve zero functions and
	// reproduce the cold run's findings byte-for-byte (enforced, not just
	// recorded).
	Cache struct {
		ColdWallMS            float64 `json:"cold_wall_ms"`
		WarmWallMS            float64 `json:"warm_wall_ms"`
		Speedup               float64 `json:"speedup"`
		ColdResolvedFunctions int     `json:"cold_resolved_functions"`
		WarmResolvedFunctions int     `json:"warm_resolved_functions"`
		WarmHits              int     `json:"warm_hits"`
		WarmMisses            int     `json:"warm_misses"`
		WarmIdentical         bool    `json:"warm_identical"`
		// WarmStores counts records written during the warm run (0 on a
		// fully cached run) and ColdStores during the cold run, both from
		// the observability cache counters.
		ColdStores int64 `json:"cold_stores"`
		WarmStores int64 `json:"warm_stores"`
	} `json:"cache"`
	// Server measures the resident-engine (gocheckd) hot path over the
	// same corpus: an analysis.Engine backed by the populated cache
	// directory takes a full seed push, then a stream of single-file
	// edit requests toggling one tick function's body between two
	// variants. Once both variants have been seen, every job replays
	// from the engine's in-memory memo, so the steady-state latency is
	// what a warm gocheckd client pays per request. The tick function is
	// clean and excluded from the entry set, so every response must
	// reproduce the cold run's findings byte-for-byte, and steady-state
	// ticks must be fully memoized — both enforced, not just recorded.
	Server struct {
		Ticks      int     `json:"ticks"`
		P50MS      float64 `json:"server_p50_ms"`
		P99MS      float64 `json:"server_p99_ms"`
		MemoHits   int64   `json:"memo_hits"`
		MemoMisses int64   `json:"memo_misses"`
		Identical  bool    `json:"identical"`
		// The telemetry_* fields re-run the identical tick stream on a
		// second engine with the full telemetry stack on — a flight
		// recorder capturing every request, which also turns on
		// per-request tracing inside the engine — so the overhead number
		// is the disabled-vs-enabled delta on the same steady-state hot
		// path. The findings must again match the cold run byte-for-byte
		// (enforced): telemetry observes the analysis, never perturbs it.
		TelemetryP50MS       float64 `json:"telemetry_p50_ms"`
		TelemetryP99MS       float64 `json:"telemetry_p99_ms"`
		TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
		TelemetryIdentical   bool    `json:"telemetry_identical"`
	} `json:"server"`
	// SolverMetrics are the internal/obs hook counters from the main
	// (cacheless) run: solver work beyond the System-size totals in
	// "solver". All are deterministic for a fixed seed — each job solves
	// on its own System with a deterministic worklist, and summing across
	// concurrently finishing jobs is order-independent.
	SolverMetrics struct {
		WorklistPushes    int64 `json:"worklist_pushes"`
		WorklistHighWater int64 `json:"worklist_high_water"`
		EdgesAdded        int64 `json:"edges_added"`
		CycleEliminations int64 `json:"cycle_eliminations"`
		Compositions      int64 `json:"compositions"`
		SkeletonBuilds    int64 `json:"skeleton_builds"`
		SkeletonForks     int64 `json:"skeleton_forks"`
	} `json:"solver_metrics"`
}

// coreBenchResult is the schema of one -core-json suite entry. Times
// are per measured operation (best and mean of -iters runs after one
// warm-up); the solver stats identify the workload so that regressions
// in derived-fact counts are visible next to regressions in time.
type coreBenchResult struct {
	Name     string  `json:"name"`
	Desc     string  `json:"desc"`
	Iters    int     `json:"iters"`
	BestMS   float64 `json:"best_ms"`
	MeanMS   float64 `json:"mean_ms"`
	Vars     int     `json:"vars"`
	Edges    int     `json:"edges"`
	Reach    int     `json:"reach"`
	ConsN    int     `json:"cons_nodes"`
	Collapse int     `json:"collapsed"`
}

func runCoreBench(path string, iters int) error {
	if iters < 1 {
		iters = 1
	}
	var out struct {
		Iters     int               `json:"iters"`
		Scenarios []coreBenchResult `json:"scenarios"`
	}
	out.Iters = iters
	for _, sc := range corebench.Scenarios() {
		op := sc.Setup(core.Options{})
		st := op() // warm-up, and the workload fingerprint
		r := coreBenchResult{
			Name: sc.Name, Desc: sc.Desc, Iters: iters,
			Vars: st.Vars, Edges: st.Edges, Reach: st.Reach,
			ConsN: st.ConsNodes, Collapse: st.Collapsed,
		}
		var total float64
		for i := 0; i < iters; i++ {
			start := time.Now()
			op()
			ms := float64(time.Since(start).Microseconds()) / 1000
			total += ms
			if i == 0 || ms < r.BestMS {
				r.BestMS = ms
			}
		}
		r.MeanMS = total / float64(iters)
		out.Scenarios = append(out.Scenarios, r)
		fmt.Printf("%-40s best %8.3f ms  mean %8.3f ms  (%d reach, %d edges)\n",
			sc.Name, r.BestMS, r.MeanMS, r.Reach, r.Edges)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

func runBench(path string, seed int64, files, functions, stmts, unsafe int) error {
	gen := synth.GenerateGo(synth.GoConfig{
		Seed:          seed,
		Files:         files,
		FuncsPerFile:  functions,
		StmtsPerFn:    stmts,
		UnsafePerFile: unsafe,
		Racy:          true,
	})
	in := make([]gosrc.File, len(gen))
	for i, f := range gen {
		in[i] = gosrc.File{Name: f.Name, Src: f.Src}
	}
	pkg, err := analysis.LoadFiles(in)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	start := time.Now()
	rep, err := analysis.Analyze(pkg, analysis.Config{Metrics: reg})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	var out benchResult
	out.Corpus.Seed = seed
	out.Corpus.Files = rep.Files
	out.Corpus.Functions = rep.Functions
	out.WallMS = float64(wall.Microseconds()) / 1000
	out.Jobs = rep.Jobs
	out.Checkers = rep.Checkers
	out.Findings = len(rep.Diagnostics)
	out.BySeverity = map[string]int{}
	for _, d := range rep.Diagnostics {
		out.BySeverity[d.Severity.String()]++
	}
	out.Solver = rep.Solver
	sm := obs.NewSolverMetrics(reg) // interned: returns the run's instruments
	pm := obs.NewPDMMetrics(reg)
	out.SolverMetrics.WorklistPushes = sm.WorklistPushes.Value()
	out.SolverMetrics.WorklistHighWater = sm.WorklistHigh.Value()
	out.SolverMetrics.EdgesAdded = sm.EdgesAdded.Value()
	out.SolverMetrics.CycleEliminations = sm.CycleElims.Value()
	out.SolverMetrics.Compositions = sm.Compositions.Value()
	out.SolverMetrics.SkeletonBuilds = pm.SkeletonBuilds.Value()
	out.SolverMetrics.SkeletonForks = pm.SkeletonForks.Value()

	if err := runCacheBench(&out, in); err != nil {
		return err
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d findings over %d jobs in %.1f ms (cache: cold %.1f ms, warm %.1f ms [%.1fx]; server p50 %.1f ms p99 %.1f ms; telemetry p50 %.1f ms [%+.1f%%])\n",
		path, out.Findings, out.Jobs, out.WallMS, out.Cache.ColdWallMS,
		out.Cache.WarmWallMS, out.Cache.Speedup,
		out.Server.P50MS, out.Server.P99MS,
		out.Server.TelemetryP50MS, out.Server.TelemetryOverheadPct)
	return nil
}

// runCacheBench measures the incremental cache on the same corpus: a
// cold run into a fresh cache directory, then a warm run over a fresh
// Package (no in-process skeleton reuse), checking the warm run skips
// all solving and reproduces the findings exactly.
func runCacheBench(out *benchResult, in []gosrc.File) error {
	dir, err := os.MkdirTemp("", "benchgen-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := analysis.OpenCache(dir)
	if err != nil {
		return err
	}
	run := func(reg *obs.Registry) (*analysis.Report, float64, error) {
		pkg, err := analysis.LoadFiles(in)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		rep, err := analysis.Analyze(pkg, analysis.Config{Cache: cache, Metrics: reg})
		return rep, float64(time.Since(start).Microseconds()) / 1000, err
	}
	coldReg, warmReg := obs.NewRegistry(), obs.NewRegistry()
	cold, coldMS, err := run(coldReg)
	if err != nil {
		return err
	}
	warm, warmMS, err := run(warmReg)
	if err != nil {
		return err
	}
	coldJSON, _ := json.Marshal(cold.Diagnostics)
	warmJSON, _ := json.Marshal(warm.Diagnostics)
	out.Cache.ColdWallMS = coldMS
	out.Cache.WarmWallMS = warmMS
	if warmMS > 0 {
		out.Cache.Speedup = coldMS / warmMS
	}
	out.Cache.ColdResolvedFunctions = cold.Cache.ResolvedFunctions
	out.Cache.WarmResolvedFunctions = warm.Cache.ResolvedFunctions
	out.Cache.WarmHits = warm.Cache.Hits
	out.Cache.WarmMisses = warm.Cache.Misses
	out.Cache.WarmIdentical = string(coldJSON) == string(warmJSON)
	out.Cache.ColdStores = obs.NewCacheMetrics(coldReg).Stores.Value()
	out.Cache.WarmStores = obs.NewCacheMetrics(warmReg).Stores.Value()
	if !out.Cache.WarmIdentical {
		return fmt.Errorf("warm cached run changed the findings")
	}
	if warm.Cache.ResolvedFunctions != 0 || warm.Cache.Misses != 0 {
		return fmt.Errorf("warm cached run was not fully cached: %d misses, %d functions re-solved",
			warm.Cache.Misses, warm.Cache.ResolvedFunctions)
	}
	return runServerBench(out, in, cache, coldJSON)
}

// serverTicks is the number of timed warm-server requests. The first
// two ticks introduce the two tick-function variants (re-lowering the
// program; the entries' jobs already replay from the memo); the
// remaining ten also swap the lowered program back in from the ring,
// so the median lands on the resident hot path.
const serverTicks = 12

// runServerBench measures the resident-engine request latency: the
// scenario a gocheckd client sees against a warm daemon. The engine
// shares the populated cache directory; each tick upserts one file
// whose single function alternates between two bodies, forcing a
// re-fingerprint without touching any entry's summary, so every job is
// served by the summary-keyed memo.
func runServerBench(out *benchResult, in []gosrc.File, cache *analysis.Cache, coldJSON []byte) error {
	pkg, err := analysis.LoadFiles(in)
	if err != nil {
		return err
	}
	entries := pkg.Roots()
	eng := analysis.NewEngine(analysis.EngineConfig{Cache: cache})
	out.Server.Ticks = serverTicks
	samples, err := tickLoop(eng, in, entries, coldJSON)
	if err != nil {
		return err
	}
	out.Server.Identical = true
	out.Server.P50MS = quantile(samples, 50)
	out.Server.P99MS = quantile(samples, 99)
	st := eng.Stats()
	out.Server.MemoHits = st.MemoHits
	out.Server.MemoMisses = st.MemoMisses
	if st.MemoHits == 0 {
		return fmt.Errorf("server scenario never hit the memo")
	}

	// Telemetry variant: the identical tick stream against a second
	// engine with the flight recorder on, which also switches the engine
	// to per-request tracing. Same cache directory, same entries, same
	// steady-state memo path — the only difference is the telemetry.
	teng := analysis.NewEngine(analysis.EngineConfig{
		Cache:  cache,
		Flight: obs.NewFlight(obs.FlightConfig{}),
	})
	tsamples, err := tickLoop(teng, in, entries, coldJSON)
	if err != nil {
		return fmt.Errorf("telemetry scenario: %v", err)
	}
	out.Server.TelemetryIdentical = true
	out.Server.TelemetryP50MS = quantile(tsamples, 50)
	out.Server.TelemetryP99MS = quantile(tsamples, 99)

	// The overhead number compares the fastest steady-state ticks on the
	// two warm engines, alternating per round so ambient noise (GC,
	// scheduler) lands on both sides: the memoized tick is deterministic
	// work, so the low tail approximates its true cost where a 12-sample
	// median would be mostly measuring the machine. Averaging the k
	// smallest samples per side smooths the residual jitter a single
	// minimum keeps.
	runtime.GC() // start the comparison from a quiesced heap
	plainLow := make([]float64, 0, overheadRounds)
	telLow := make([]float64, 0, overheadRounds)
	for r := 0; r < overheadRounds; r++ {
		i := serverTicks + 1 + r
		first, second := eng, teng
		if r%2 == 1 {
			// Swap which engine ticks first so systematic drift (thermal,
			// background load ramping) cancels instead of biasing one side.
			first, second = teng, eng
		}
		a, err := tickOnce(first, entries, i, coldJSON)
		if err != nil {
			return err
		}
		b, err := tickOnce(second, entries, i, coldJSON)
		if err != nil {
			return err
		}
		if r%2 == 1 {
			a, b = b, a
		}
		plainLow = append(plainLow, a)
		telLow = append(telLow, b)
	}
	// Paired estimator: each round's two ticks run back to back, so slow
	// machine moments hit both sides of a pair; the median of per-round
	// differences discards the pairs where noise hit only one tick. An
	// A/A run of this harness (both engines plain) reads within a
	// fraction of a percent, where unpaired low-tail comparisons drift
	// several percent with ambient load.
	diffs := make([]float64, overheadRounds)
	for r := range diffs {
		diffs[r] = telLow[r] - plainLow[r]
	}
	sort.Float64s(diffs)
	medianDiff := diffs[len(diffs)/2]
	sort.Float64s(plainLow)
	if base := plainLow[len(plainLow)/2]; base > 0 {
		out.Server.TelemetryOverheadPct = medianDiff / base * 100
	}
	return nil
}

// overheadRounds is the number of alternating steady-state tick pairs
// the telemetry-overhead comparison takes its best-of minimum over.
const overheadRounds = 128

// tickFile is the single-function edit file whose body toggles between
// two variants with the tick index.
func tickFile(i int) gosrc.File {
	return gosrc.File{
		Name: "zz_edit_tick.go",
		Src:  fmt.Sprintf("package bench\n\nfunc editTick() int {\n\tx := %d\n\treturn x\n}\n", i%2),
	}
}

// tickOnce times one edit tick against eng. Every response must
// reproduce coldJSON byte-for-byte, and steady-state ticks (both
// variants resident, i > 2) must be fully memoized: a tick must never
// fall back to disk or re-solve anything — the edit touches no entry's
// summary, so every memo key has been seen before.
func tickOnce(eng *analysis.Engine, entries []string, i int, coldJSON []byte) (float64, error) {
	start := time.Now()
	rep, err := eng.Check(analysis.CheckRequest{
		Upserts: []gosrc.File{tickFile(i)},
		Entries: entries,
	})
	if err != nil {
		return 0, fmt.Errorf("server tick %d: %v", i, err)
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	tickJSON, _ := json.Marshal(rep.Diagnostics)
	if string(tickJSON) != string(coldJSON) {
		return 0, fmt.Errorf("server tick %d changed the findings", i)
	}
	if i > 2 && rep.Cache != nil && (rep.Cache.Misses != 0 || rep.Cache.ResolvedFunctions != 0) {
		return 0, fmt.Errorf("server tick %d was not fully memoized: %d misses, %d functions re-solved",
			i, rep.Cache.Misses, rep.Cache.ResolvedFunctions)
	}
	return ms, nil
}

// tickLoop seeds eng with the corpus, then drives serverTicks single-file
// edit requests toggling one tick function's body between two variants.
// Returns the per-tick latencies in milliseconds.
func tickLoop(eng *analysis.Engine, in []gosrc.File, entries []string, coldJSON []byte) ([]float64, error) {
	if _, err := eng.Check(analysis.CheckRequest{Upserts: in, Entries: entries}); err != nil {
		return nil, fmt.Errorf("server seed push: %v", err)
	}
	samples := make([]float64, 0, serverTicks)
	for i := 1; i <= serverTicks; i++ {
		ms, err := tickOnce(eng, entries, i, coldJSON)
		if err != nil {
			return nil, err
		}
		samples = append(samples, ms)
	}
	return samples, nil
}

// quantile returns the q-th percentile of the samples (nearest-rank,
// matching the historical p50/p99 formulas). The input is sorted in
// place.
func quantile(samples []float64, q int) float64 {
	sort.Float64s(samples)
	if q == 50 {
		return samples[len(samples)/2]
	}
	return samples[(len(samples)*q+q)/100-1]
}
