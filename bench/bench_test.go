package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rasc/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/expected-seed1.json")

// TestMain lets the test binary serve as the reference job's executable,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(referenceEnv) == "1" {
		referenceJob()
		return
	}
	os.Exit(m.Run())
}

// editLog applies the first n edits of a stream to a fresh state and
// returns every edited file's content, in order.
func editLog(c *corpus, s stream, n int) []string {
	st := c.state()
	var out []string
	for range n {
		out = append(out, st.apply(s.next()).Src)
	}
	return out
}

// corpusAndStreams renders a seed's corpus and the first edits of every
// stream the workloads use.
func corpusAndStreams(t *testing.T, seed int64) []string {
	t.Helper()
	c, err := newCorpus(seed, corpusFiles)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range c.files {
		out = append(out, f.Name, f.Src)
	}
	for k := range 2 {
		out = append(out, editLog(c, c.novel(seed, k), 20)...)
		out = append(out, editLog(c, c.flip(seed, k), 4)...)
	}
	return out
}

func TestSeedDeterminesCorpusAndEdits(t *testing.T) {
	a, b := corpusAndStreams(t, 1), corpusAndStreams(t, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 produced two different corpora or edit streams")
	}
	if reflect.DeepEqual(a, corpusAndStreams(t, 2)) {
		t.Fatal("seeds 1 and 2 produced the same corpus and edit streams")
	}
}

func TestEditsKeepLinesAndAreNovel(t *testing.T) {
	c, err := newCorpus(1, corpusFiles)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range c.files {
		seen[f.Src] = true
	}
	st, s := c.state(), c.novel(1, 0)
	for range 50 {
		f := st.apply(s.next())
		orig := c.files[indexOf(c, f.Name)].Src
		if strings.Count(f.Src, "\n") != strings.Count(orig, "\n") {
			t.Fatalf("edit of %s changed its line count", f.Name)
		}
		if seen[f.Src] {
			t.Fatalf("novel edit of %s repeats an earlier version", f.Name)
		}
		seen[f.Src] = true
	}
}

func indexOf(c *corpus, name string) int {
	for i, f := range c.files {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	refs, err := openRefCache("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{
		refs:     refs,
		root:     "..",
		workload: workload,
		seed:     1,
		seconds:  time.Second,
		files:    2,
		traced:   traced,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

// checkMetrics fails unless r reports exactly the named metrics, each
// with its unit, and no operation failed.
func checkMetrics(t *testing.T, r *result, want []struct{ Name, Unit string }) {
	t.Helper()
	got := map[string]string{}
	for _, m := range r.metrics {
		got[m.name] = m.unit
	}
	for _, w := range want {
		unit, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", r.workload, w.Name)
		} else if unit != w.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", r.workload, w.Name, unit, w.Unit)
		}
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("%s: metric %s is not in BENCHMARK.json", r.workload, name)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", r.workload, r.failed, r.attempted, r.problems)
	}
}

// TestTinyRuns runs every workload on a two-file corpus for a second
// and checks that it reports every end-to-end metric BENCHMARK.json
// names, with its unit, and no failed operation; then one traced run,
// for every per-layer metric and a valid trace.
func TestTinyRuns(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		r, err := runWorkload(tinyConfig(t, w, false))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkMetrics(t, r, spec.EndToEnd)
	}

	cfg := tinyConfig(t, "server-flip", true)
	r, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, r, spec.PerLayer)
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(data); err != nil {
		t.Fatal(err)
	}
}

// golden is the seed-1 behaviour the benchmark's checks rest on: the
// corpus's findings and the Table 1 verdicts. A change to either is a
// behaviour change and updates the file knowingly (go test -update).
type golden struct {
	Findings []string `json:"findings"`
	Table1   []string `json:"table1_verdicts"`
}

func TestSeed1Golden(t *testing.T) {
	c, err := newCorpus(1, corpusFiles)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := referenceReport(c.files)
	if err != nil {
		t.Fatal(err)
	}
	var got golden
	for _, d := range rep.Diagnostics {
		f := fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Checker)
		if d.Label != "" {
			f += " " + d.Label
		}
		if d.May {
			f += " (may)"
		}
		got.Findings = append(got.Findings, f)
	}
	progs := table1Programs(1)
	if err := parseAll(progs); err != nil {
		t.Fatal(err)
	}
	tp := newTable1Property()
	for i, p := range progs {
		res, err := tp.check(p.prog)
		if err != nil {
			t.Fatal(err)
		}
		got.Table1 = append(got.Table1, fmt.Sprintf("%d %s violating=%v", i, p.row, len(res.Violations) > 0))
	}

	path := filepath.Join("testdata", "expected-seed1.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed-1 findings or Table 1 verdicts changed (go test -update to accept):\ngot  %v\nwant %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
