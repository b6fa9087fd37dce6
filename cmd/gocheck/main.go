// Command gocheck is the package-level static-analysis driver for Go
// sources: it loads files, directories or recursive dir/... trees,
// translates them into the toolkit's intermediate form, and runs the
// registered API-usage checkers (regularly-annotated-set-constraint
// properties) concurrently over the package's entry functions.
//
// Usage:
//
//	gocheck [-checkers all|name,...] [-entry fn,...]
//	        [-format text|json|sarif|github] [-fail-on error|warning|note]
//	        [-parallel N] [-cache-dir dir] [-skeleton-cache=false]
//	        [-trace-out f.json] [-metrics-json f.json] [-explain] [-progress]
//	        [-cpuprofile f.prof] [-memprofile f.prof] path...
//	gocheck -server addr [-program name] [-server-timeout 30s] path...
//	gocheck -list
//	gocheck -speclint [-checkers all|name,...]
//
// Diagnostics carry file:line positions from the original Go source and
// witness traces (two traces for race and lockorder findings, one per
// goroutine). A //rasc:ignore or //rasc:ignore=checker,... line comment
// suppresses findings reported on that line; //rasc:ignore-file[=...]
// suppresses a whole file. The github format emits ::error/::warning
// workflow commands for inline pull-request annotations. Exit status is
// 3 when findings at or above the -fail-on severity remain, 1 on
// errors, 2 on usage errors.
//
// -cache-dir enables the incremental result cache: job results are
// content-keyed by function summaries (internal/ir), so an unchanged
// package re-analyzes from disk without solving anything, and an edit
// re-solves only the edited function's SCC and its callers. A one-line
// cache summary goes to stderr; the report itself is byte-identical to
// a cacheless run. With the cache on, solved constraint skeletons are
// additionally serialized as frozen snapshots (-skeleton-cache, default
// true): a job that must be re-solved on an unchanged entry (its record
// deleted, or written under another format version) reconstructs the
// entry's solved base layer directly from bytes instead of re-solving
// it. Corrupt or version-skewed snapshots demote to a live build, never
// a wrong report.
//
// Observability: -trace-out writes a Chrome trace-event JSON of every
// driver phase (load, translate, ir.lower, skeleton builds, per-job
// solve and cache traffic, merge, render) viewable in Perfetto or
// chrome://tracing; -metrics-json writes a snapshot of the solver,
// skeleton, cache and driver metric registries; -explain attaches a
// derivation chain ("provenance") to every finding in the text, json
// and sarif formats; -progress prints coarse phase lines to stderr.
// None of these change the findings themselves: a run with all of them
// on reports byte-identical diagnostics to a plain run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rasc/internal/analysis"
	"rasc/internal/core"
	"rasc/internal/obs"
)

func main() {
	os.Exit(run())
}

// run carries the whole driver so that deferred profile writers execute
// before the process exits (os.Exit in main would skip them).
func run() int {
	checkersFlag := flag.String("checkers", "all", "comma-separated checker names, or all")
	entryFlag := flag.String("entry", "", "comma-separated entry functions (default: package roots)")
	format := flag.String("format", "text", "output format: text, json, sarif or github")
	failOn := flag.String("fail-on", "warning", "lowest severity that fails the run (error, warning or note)")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "directory for the incremental result cache (empty = no cache)")
	skelCache := flag.Bool("skeleton-cache", true, "with -cache-dir, snapshot solved constraint skeletons for jobs re-solved on an unchanged entry")
	list := flag.Bool("list", false, "list registered checkers and exit")
	speclint := flag.Bool("speclint", false, "lint the checkers' property specs and exit (3 on findings)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the analysis to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run's phases to this file")
	metricsJSON := flag.String("metrics-json", "", "write a JSON snapshot of the run's metric registry to this file")
	explain := flag.Bool("explain", false, "attach a derivation chain (provenance) to every finding")
	progress := flag.Bool("progress", false, "print coarse progress lines to stderr while analyzing")
	verbose := flag.Bool("verbose", false, "print secondary cache telemetry (skeleton snapshots) to stderr")
	serverAddr := flag.String("server", "", "check through a running gocheckd at this address instead of analyzing in-process")
	program := flag.String("program", "default", "with -server, the resident program name to check against")
	serverTimeout := flag.Duration("server-timeout", 0, "with -server, per-request HTTP timeout (0 = default 5m)")
	flag.Parse()

	if *list {
		if err := analysis.ListText(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *speclint {
		checkers, err := analysis.Resolve(*checkersFlag)
		if err != nil {
			return fail(err)
		}
		findings := analysis.Speclint(checkers)
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if len(findings) > 0 {
			return 3
		}
		fmt.Printf("gocheck: speclint clean over %d checker(s)\n", len(checkers))
		return 0
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gocheck [flags] path...  (gocheck -list for checkers)")
		return 2
	}
	checkers, err := analysis.Resolve(*checkersFlag)
	if err != nil {
		return fail(err)
	}
	var entries []string
	for _, e := range strings.Split(*entryFlag, ",") {
		if e = strings.TrimSpace(e); e != "" {
			entries = append(entries, e)
		}
	}

	if *serverAddr != "" {
		return runServer(serverOpts{
			addr:     *serverAddr,
			program:  *program,
			timeout:  *serverTimeout,
			paths:    flag.Args(),
			checkers: *checkersFlag,
			entries:  entries,
			format:   *format,
			failOn:   *failOn,
			explain:  *explain,
		})
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var cache *analysis.Cache
	if *cacheDir != "" {
		if cache, err = analysis.OpenCache(*cacheDir); err != nil {
			return fail(err)
		}
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	var registry *obs.Registry
	if *metricsJSON != "" {
		registry = obs.NewRegistry()
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr)
	}

	pkg, err := analysis.LoadPathsTraced(flag.Args(), tracer)
	if err != nil {
		return fail(err)
	}
	rep, err := analysis.Analyze(pkg, analysis.Config{
		Checkers:            checkers,
		Entries:             entries,
		Parallel:            *parallel,
		Opts:                core.Options{},
		Cache:               cache,
		NoSkeletonSnapshots: !*skelCache,
		Trace:               tracer,
		Metrics:             registry,
		Explain:             *explain,
		Progress:            prog,
	})
	if err != nil {
		return fail(err)
	}
	if rep.Cache != nil {
		// Cache telemetry goes to stderr and is then dropped from the
		// report, so every rendered format stays byte-identical across
		// cacheless, cold and warm runs.
		cs := rep.Cache
		fmt.Fprintf(os.Stderr, "gocheck: cache hits=%d misses=%d rate=%.1f%% resolved=%d/%d\n",
			cs.Hits, cs.Misses, cs.HitRate(), cs.ResolvedFunctions, cs.TotalFunctions)
		// Skeleton-snapshot telemetry is secondary: scripted consumers
		// only want it on request (-verbose); the counts always land in
		// -metrics-json as the snapshot.* counters.
		if *verbose && cs.SkeletonHits+cs.SkeletonMisses > 0 {
			fmt.Fprintf(os.Stderr, "gocheck: skeleton snapshots hits=%d misses=%d corrupt=%d\n",
				cs.SkeletonHits, cs.SkeletonMisses, cs.SkeletonCorrupt)
		}
		for _, n := range cs.Notes {
			fmt.Fprintf(os.Stderr, "gocheck: %s\n", n)
		}
		rep.Cache = nil
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC() // materialize live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}

	threshold, ok := parseThreshold(*failOn)
	if !ok {
		fmt.Fprintf(os.Stderr, "gocheck: unknown -fail-on severity %q\n", *failOn)
		return 2
	}

	rsp := tracer.Start("render")
	err = render(rep, *format)
	rsp.SetAttr("format", *format)
	rsp.Finish()
	if err != nil {
		if _, unknown := err.(unknownFormatError); unknown {
			fmt.Fprintln(os.Stderr, "gocheck:", err)
			return 2
		}
		return fail(err)
	}
	if err := writeObsOutputs(tracer, *traceOut, registry, *metricsJSON); err != nil {
		return fail(err)
	}
	if rep.HasFindingsAtLeast(threshold) {
		return 3
	}
	return 0
}

// writeObsOutputs flushes the trace and metrics files after rendering,
// so the trace covers every phase including render itself.
func writeObsOutputs(tracer *obs.Tracer, tracePath string, registry *obs.Registry, metricsPath string) error {
	if tracer != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if registry != nil && metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := registry.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// parseThreshold maps a -fail-on value to a severity.
func parseThreshold(failOn string) (analysis.Severity, bool) {
	switch failOn {
	case "error":
		return analysis.SeverityError, true
	case "warning":
		return analysis.SeverityWarning, true
	case "note":
		return analysis.SeverityNote, true
	}
	return 0, false
}

// unknownFormatError marks a bad -format value (usage error, exit 2).
type unknownFormatError struct{ format string }

func (e unknownFormatError) Error() string { return fmt.Sprintf("unknown format %q", e.format) }

// render writes the report to stdout in the selected format. The same
// renderers serve in-process and -server runs, so both modes emit
// byte-identical output for identical reports.
func render(rep *analysis.Report, format string) error {
	switch format {
	case "text":
		return rep.Text(os.Stdout)
	case "json":
		return rep.JSON(os.Stdout)
	case "sarif":
		return rep.SARIF(os.Stdout)
	case "github":
		return rep.Github(os.Stdout)
	}
	return unknownFormatError{format}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "gocheck:", err)
	return 1
}
