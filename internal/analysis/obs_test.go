package analysis

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"rasc/internal/obs"
)

// internalTree is this repository's own internal/... tree.
const internalTree = "../..."

// plainRuns memoizes plainReport.
var plainRuns = struct {
	sync.Mutex
	reps map[string]*Report
}{reps: map[string]*Report{}}

// plainReport returns the report of a plain one-shot run over path,
// analyzed at most once per test binary: the reference that
// instrumented and cached runs must reproduce.
func plainReport(t *testing.T, path string) *Report {
	t.Helper()
	plainRuns.Lock()
	defer plainRuns.Unlock()
	rep := plainRuns.reps[path]
	if rep == nil {
		pkg, err := LoadPaths([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = Analyze(pkg, Config{}); err != nil {
			t.Fatal(err)
		}
		plainRuns.reps[path] = rep
	}
	return rep
}

// analyzeJSON runs Analyze with cfg and returns the rendered JSON
// report, the canonical byte-identity surface.
func analyzeJSON(t *testing.T, pkg *Package, cfg Config) []byte {
	t.Helper()
	rep, err := Analyze(pkg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Findings and every rendered byte must be identical whether the full
// observability stack (tracer, metrics, progress) is on or off: the
// hooks observe the run, they never steer it.
func TestObservabilityDoesNotChangeReport(t *testing.T) {
	for _, input := range []struct{ name, path string }{
		{"src", "testdata/src/..."},
		{"internal", internalTree},
	} {
		t.Run(input.name, func(t *testing.T) {
			var plain bytes.Buffer
			if err := plainReport(t, input.path).JSON(&plain); err != nil {
				t.Fatal(err)
			}
			pkg, err := LoadPaths([]string{input.path})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			reg := obs.NewRegistry()
			var progOut bytes.Buffer
			instrumented := analyzeJSON(t, pkg, Config{
				Trace:    tr,
				Metrics:  reg,
				Progress: obs.NewProgress(&progOut),
			})
			if !bytes.Equal(plain.Bytes(), instrumented) {
				t.Errorf("instrumented report differs from plain report:\nplain:\n%s\ninstrumented:\n%s", plain.Bytes(), instrumented)
			}

			// The instruments themselves must have observed the run.
			var traceBuf bytes.Buffer
			if err := tr.WriteJSON(&traceBuf); err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateTraceJSON(traceBuf.Bytes()); err != nil {
				t.Errorf("trace JSON invalid: %v", err)
			}
			var metricsBuf bytes.Buffer
			if err := reg.WriteJSON(&metricsBuf); err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateMetricsJSON(metricsBuf.Bytes()); err != nil {
				t.Errorf("metrics JSON invalid: %v", err)
			}
			snap := reg.Snapshot()
			if snap.Counters["driver.jobs"] == 0 {
				t.Error("driver.jobs counter did not observe any jobs")
			}
			if snap.Counters["solver.edges_added"] == 0 {
				t.Error("solver.edges_added counter did not observe any edges")
			}
			// The registry's relational counting checkers must show up in
			// the spec metrics, not just leave a well-formed snapshot.
			for _, name := range []string{"spec.relations", "spec.relation_states", "spec.relation_saturations"} {
				_, counter := snap.Counters[name]
				_, gauge := snap.Gauges[name]
				if !counter && !gauge {
					t.Errorf("metrics snapshot lacks %s", name)
				}
			}
			if progOut.Len() == 0 {
				t.Error("progress writer saw no output")
			}
		})
	}
}

// An explain run attaches a non-empty provenance chain to every
// diagnostic — solver-derived chains for property checkers, synthesized
// witness chains for the model-based concurrency checkers — without
// changing any pre-existing report field.
func TestExplainProvenanceOnAllFindings(t *testing.T) {
	for _, corpus := range []struct {
		name  string
		paths []string
	}{
		{"src", []string{"testdata/src/..."}},
		{"race", []string{"testdata/race"}},
		{"internal", []string{internalTree}},
	} {
		t.Run(corpus.name, func(t *testing.T) {
			pkg, err := LoadPaths(corpus.paths)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Analyze(pkg, Config{Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Diagnostics) == 0 {
				t.Fatal("corpus produced no findings")
			}
			for _, d := range rep.Diagnostics {
				if len(d.Provenance) == 0 {
					t.Errorf("%s finding at %s:%d has no provenance", d.Checker, d.File, d.Line)
					continue
				}
				for i, ps := range d.Provenance {
					if ps.Rule == "" {
						t.Errorf("%s finding at %s:%d: provenance hop %d has no rule", d.Checker, d.File, d.Line, i)
					}
				}
			}
		})
	}
}

// Stripping the provenance from an explain run must reproduce the
// plain run byte-for-byte: explain adds the provenance field and
// nothing else.
func TestExplainOnlyAddsProvenance(t *testing.T) {
	plain := analyzeJSON(t, loadCorpus(t), Config{})

	rep, err := Analyze(loadCorpus(t), Config{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Diagnostics {
		rep.Diagnostics[i].Provenance = nil
	}
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, buf.Bytes()) {
		t.Errorf("explain run changed more than provenance:\nplain:\n%s\nexplain (provenance stripped):\n%s", plain, buf.Bytes())
	}
}

// Explain and non-explain runs must use distinct cache keys: a record
// stored without provenance must never satisfy an explain run (whose
// diagnostics need the chains), and vice versa. Warm same-mode runs
// must still hit.
func TestCacheSeparatesExplainRecords(t *testing.T) {
	dir := t.TempDir()
	run := func(explain bool) *Report {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: explain})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cold := run(false)
	if cold.Cache.Hits != 0 {
		t.Fatalf("cold run hit %d times, want 0", cold.Cache.Hits)
	}
	coldExplain := run(true)
	if coldExplain.Cache.Hits != 0 {
		t.Errorf("explain run hit the non-explain cache %d times, want 0", coldExplain.Cache.Hits)
	}
	warmExplain := run(true)
	if warmExplain.Cache.Misses != 0 {
		t.Errorf("warm explain run missed %d times, want 0", warmExplain.Cache.Misses)
	}
	for _, d := range warmExplain.Diagnostics {
		if len(d.Provenance) == 0 {
			t.Errorf("cached explain finding at %s:%d lost its provenance", d.File, d.Line)
		}
	}
	warm := run(false)
	if warm.Cache.Misses != 0 {
		t.Errorf("warm non-explain run missed %d times, want 0", warm.Cache.Misses)
	}
	for _, d := range warm.Diagnostics {
		if len(d.Provenance) != 0 {
			t.Errorf("non-explain finding at %s:%d carries provenance from the cache", d.File, d.Line)
		}
	}
}

// LoadPathsTraced must load the same package as LoadPaths — same files,
// same functions, same findings — while recording load/translate/lower
// spans; with a nil tracer it is exactly LoadPaths.
func TestLoadPathsTracedEquivalence(t *testing.T) {
	plainPkg, err := LoadPaths([]string{"testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	tracedPkg, err := LoadPathsTraced([]string{"testdata/src/..."}, tr)
	if err != nil {
		t.Fatal(err)
	}
	nilPkg, err := LoadPathsTraced([]string{"testdata/src/..."}, nil)
	if err != nil {
		t.Fatal(err)
	}

	plain := analyzeJSON(t, plainPkg, Config{})
	traced := analyzeJSON(t, tracedPkg, Config{})
	viaNil := analyzeJSON(t, nilPkg, Config{})
	if !bytes.Equal(plain, traced) {
		t.Error("LoadPathsTraced produced a different report than LoadPaths")
	}
	if !bytes.Equal(plain, viaNil) {
		t.Error("LoadPathsTraced(nil tracer) produced a different report than LoadPaths")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"load": false, "translate": false, "ir.lower": false}
	for _, ev := range tf.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// SARIF output of an explain run carries the provenance chain in each
// result's property bag; a non-explain run's SARIF must not mention it.
func TestSARIFProvenanceProperty(t *testing.T) {
	rep, err := Analyze(loadCorpus(t), Config{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.SARIF(&buf); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []struct {
				Properties map[string]json.RawMessage `json:"properties"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatal("unexpected SARIF shape")
	}
	for i, res := range log.Runs[0].Results {
		if _, ok := res.Properties["provenance"]; !ok {
			t.Errorf("SARIF result %d has no provenance property", i)
		}
	}

	plainRep, err := Analyze(loadCorpus(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := plainRep.SARIF(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("provenance")) {
		t.Error("non-explain SARIF mentions provenance")
	}
}
