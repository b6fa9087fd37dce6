package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"rasc/internal/gosrc"
	"rasc/internal/obs"
	"rasc/internal/pdm"
	"rasc/internal/synth"
)

// synthFiles generates a synthetic multi-file Go package.
func synthFiles(cfg synth.GoConfig) []gosrc.File {
	gen := synth.GenerateGo(cfg)
	in := make([]gosrc.File, len(gen))
	for i, f := range gen {
		in[i] = gosrc.File{Name: f.Name, Src: f.Src}
	}
	return in
}

// benchFiles is a synthetic multi-file Go package (benchgen-style
// corpus); its jobs are (checker x root) pairs, one root per file.
func benchFiles(files int) []gosrc.File {
	return synthFiles(synth.GoConfig{
		Seed:          7,
		Files:         files,
		FuncsPerFile:  6,
		StmtsPerFn:    25,
		UnsafePerFile: 2,
	})
}

// BenchmarkDriver measures a cold whole-package analysis — skeleton
// builds, null layers, the concurrency model and every job — at
// worker-pool sizes 1 and GOMAXPROCS; the per-job solves are
// independent, so the parallel run should scale with cores. Each
// iteration analyzes a freshly loaded Package, loaded with the timer
// stopped, so no iteration reuses another's skeletons.
func BenchmarkDriver(b *testing.B) {
	files := benchFiles(8)
	pools := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pools = append(pools, n)
	} else {
		// Single-core machine: still exercise the pool path so the
		// comparison exists, even though no speedup is possible.
		pools = append(pools, 4)
	}
	for _, par := range pools {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pkg, err := LoadFiles(files)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := Analyze(pkg, Config{Parallel: par})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Diagnostics) == 0 {
					b.Fatal("benchmark corpus must produce findings")
				}
			}
		})
	}
}

// BenchmarkLoad measures the front end alone — LoadFiles' parse,
// translation, lowering and fingerprints — on BenchmarkDriver's corpus,
// one fresh load per iteration.
func BenchmarkLoad(b *testing.B) {
	files := benchFiles(8)
	for i := 0; i < b.N; i++ {
		if _, err := LoadFiles(files); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShapeCorpus is the benchmark's synthetic package for seed: 16
// files of 8 functions of 30 statements, one injected bug per file and
// racy goroutine writes, sorted by name as gocheck loads a directory.
func benchShapeCorpus(seed int64) []gosrc.File {
	files := synthFiles(synth.GoConfig{Seed: seed, Files: 16, FuncsPerFile: 8,
		StmtsPerFn: 30, UnsafePerFile: 1, Racy: true})
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files
}

// BenchmarkLayers layers every forked property job of the seed-1
// benchmark corpus — every job that is not served by its entry's null
// layer — on a loaded Package whose skeletons are built: "fresh"
// allocates each layer's storage, "workspace" fills one pdm.Workspace
// with every layer, as a job-pool worker does.
func BenchmarkLayers(b *testing.B) {
	pkg, err := LoadFiles(benchShapeCorpus(1))
	if err != nil {
		b.Fatal(err)
	}
	type job struct {
		c     *Checker
		entry string
		sk    *pdm.Skeleton
	}
	var jobs []job
	for _, c := range All() {
		if c.Run != nil {
			continue
		}
		prop, events := c.compiled()
		for _, e := range pkg.Roots() {
			se := pkg.skeleton(e, nil)
			if se.err != nil {
				b.Fatal(se.err)
			}
			if !nullable(prop) || se.sk.Matches(events) {
				jobs = append(jobs, job{c, e, se.sk})
			}
		}
	}
	for _, bc := range []struct {
		name string
		ws   *pdm.Workspace
	}{{"fresh", nil}, {"workspace", new(pdm.Workspace)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, j := range jobs {
					if _, err := layerJob(pkg, j.c, j.entry, j.sk, nil, bc.ws); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// driverCorpus is the driver benchmark's corpus: a seeded synthetic
// package of 8 files with 6 functions each, one injected bug per file,
// and unguarded goroutine writes for the race checker.
func driverCorpus() []gosrc.File {
	return synthFiles(synth.GoConfig{
		Seed:          1,
		Files:         8,
		FuncsPerFile:  6,
		StmtsPerFn:    30,
		UnsafePerFile: 1,
		Racy:          true,
	})
}

// The driver corpus derives exactly these jobs, findings, constraint
// system totals and solver work counts. All are deterministic — each job
// solves on its own system with a deterministic worklist, and sums over
// concurrently finishing jobs do not depend on their order — so an
// algorithmic change to any layer below the driver shows here even
// where timings drown it in noise. The work counts cover one null layer
// per entry, not one per null job: 36 of the 96 property jobs match no
// event on their entry, and the 8 entries' null layers serve them all.
func TestDriverCorpusCounts(t *testing.T) {
	pkg, err := LoadFiles(driverCorpus())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := Analyze(pkg, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	bySeverity := map[string]int{}
	for _, d := range rep.Diagnostics {
		bySeverity[d.Severity.String()]++
	}
	if rep.Jobs != 112 || len(rep.Diagnostics) != 22 ||
		bySeverity["error"] != 9 || bySeverity["warning"] != 13 {
		t.Errorf("%d jobs, %d findings %v; want 112 jobs, 22 findings (9 error, 13 warning)",
			rep.Jobs, len(rep.Diagnostics), bySeverity)
	}
	if want := (SolverStats{Vars: 4744, ConsNodes: 72, Edges: 21789}); rep.Solver != want {
		t.Errorf("solver totals %+v, want %+v", rep.Solver, want)
	}
	sm, pm := obs.NewSolverMetrics(reg), obs.NewPDMMetrics(reg) // the run's instruments
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"worklist pushes", sm.WorklistPushes.Value(), 39685},
		{"worklist high water", sm.WorklistHigh.Value(), 48},
		{"edges added", sm.EdgesAdded.Value(), 12214},
		{"cycle eliminations", sm.CycleElims.Value(), 6720},
		{"compositions", sm.Compositions.Value(), 51665},
		{"skeleton builds", pm.SkeletonBuilds.Value(), 8},
		{"skeleton forks", pm.SkeletonForks.Value(), 68},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// tickFile is a file outside every entry's closure whose one function
// returns body, so requests that change body move the file set between
// states without changing any entry's summary.
func tickFile(body int) gosrc.File {
	return gosrc.File{
		Name: "zz_edit_tick.go",
		Src:  fmt.Sprintf("package bench\n\nfunc editTick() int {\n\tx := %d\n\treturn x\n}\n", body),
	}
}

// tick sends eng the i-th edit of the tick stream, which toggles
// tickFile between two bodies, and checks that the findings are the
// seed push's, want, byte for byte. It returns the report and the
// request's wall time.
func tick(tb testing.TB, eng *Engine, entries []string, i int, want []byte) (*Report, time.Duration) {
	tb.Helper()
	start := time.Now()
	rep, err := eng.Check(CheckRequest{Upserts: []gosrc.File{tickFile(i % 2)}, Entries: entries})
	d := time.Since(start)
	if err != nil {
		tb.Fatalf("tick %d: %v", i, err)
	}
	got, err := json.Marshal(rep.Diagnostics)
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		tb.Fatalf("tick %d changed the findings", i)
	}
	return rep, d
}

// seedPush pushes the corpus to eng and returns the findings as JSON.
func seedPush(tb testing.TB, eng *Engine, in []gosrc.File, entries []string) []byte {
	tb.Helper()
	rep, err := eng.Check(CheckRequest{Upserts: in, Entries: entries})
	if err != nil {
		tb.Fatal(err)
	}
	seed, err := json.Marshal(rep.Diagnostics)
	if err != nil {
		tb.Fatal(err)
	}
	return seed
}

// overheadRounds is the number of paired steady-state ticks behind one
// telemetry-overhead estimate.
const overheadRounds = 128

// BenchmarkTelemetryOverhead estimates what the full telemetry stack —
// a flight recorder capturing every request, which also turns on
// per-request tracing — adds to a warm gocheckd request. Two engines
// over one cache, one plain and one with the recorder, take the driver
// corpus and then the same tick stream; once both tick bodies are
// resident, every request is a memo hit on both. Each round times one
// tick on each engine back to back, alternating which goes first so
// drift (thermal, background load ramping) cancels instead of biasing
// one side. overhead_pct is the median per-round difference over the
// median plain tick: slow machine moments hit both ticks of a pair, and
// the median discards the pairs where noise hit only one. Every tick
// must return the seed push's findings byte for byte: telemetry
// observes the analysis, never perturbs it.
func BenchmarkTelemetryOverhead(b *testing.B) {
	in := driverCorpus()
	pkg, err := LoadFiles(in)
	if err != nil {
		b.Fatal(err)
	}
	entries := pkg.Roots()
	cache, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	plain := NewEngine(EngineConfig{Cache: cache})
	tel := NewEngine(EngineConfig{Cache: cache, Flight: obs.NewFlight(obs.FlightConfig{})})
	seed := seedPush(b, plain, in, entries)
	if !bytes.Equal(seedPush(b, tel, in, entries), seed) {
		b.Fatal("the telemetry engine's seed push changed the findings")
	}
	for i := 1; i <= 2; i++ { // make both tick bodies resident
		tick(b, plain, entries, i, seed)
		tick(b, tel, entries, i, seed)
	}

	var plainMS, diffs []float64
	runtime.GC() // start the comparison from a quiesced heap
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for r := 0; r < overheadRounds; r++ {
			i := 3 + r
			first, second := plain, tel
			if r%2 == 1 {
				first, second = tel, plain
			}
			_, plainD := tick(b, first, entries, i, seed)
			_, telD := tick(b, second, entries, i, seed)
			if r%2 == 1 {
				plainD, telD = telD, plainD
			}
			plainMS = append(plainMS, ms(plainD))
			diffs = append(diffs, ms(telD)-ms(plainD))
		}
	}
	b.StopTimer()
	sort.Float64s(plainMS)
	sort.Float64s(diffs)
	if base := plainMS[len(plainMS)/2]; base > 0 {
		b.ReportMetric(diffs[len(diffs)/2]/base*100, "overhead_pct")
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
