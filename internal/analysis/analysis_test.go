package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"rasc/internal/gosrc"
	"rasc/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("expected >= 5 built-in checkers, got %d", len(all))
	}
	for _, name := range []string{"doublelock", "fileleak", "taint", "sqlrows", "waitgroup"} {
		if _, ok := Get(name); !ok {
			t.Errorf("checker %s not registered", name)
		}
	}
	for _, list := range []string{"doublelock,fileleak", " doublelock , fileleak,doublelock,"} {
		got, err := Resolve(strings.Split(list, ","))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Name != "doublelock" || got[1].Name != "fileleak" {
			t.Errorf("Resolve(%q) = %v", list, got)
		}
	}
	if _, err := Resolve([]string{"nosuch"}); err == nil {
		t.Error("unknown checker must error")
	}
	if all2, err := Resolve([]string{"all"}); err != nil || len(all2) != len(all) {
		t.Errorf("Resolve(all) = %v, %v", all2, err)
	}

	// A checker table with an unnamed checker, a checker of neither or
	// both forms, or a duplicate name does not make a registry.
	run := func(*Package, *Checker, string) []Diagnostic { return nil }
	for name, cs := range map[string][]*Checker{
		"unnamed":   {{Run: run}},
		"no form":   {{Name: "a"}},
		"two forms": {{Name: "a", Run: run, Spec: gosrc.DoubleLockSpecSrc, NewEvents: gosrc.DoubleLockEvents}},
		"duplicate": {{Name: "a", Run: run}, {Name: "a", Run: run}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: newRegistry accepted the table", name)
				}
			}()
			newRegistry(cs)
		}()
	}
}

func loadCorpus(t *testing.T) *Package {
	t.Helper()
	pkg, err := LoadPaths([]string{"testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestDriverOnCorpus(t *testing.T) {
	pkg := loadCorpus(t)
	if len(pkg.Files) < 3 {
		t.Fatalf("corpus must span >= 3 files, got %d", len(pkg.Files))
	}
	rep, err := Analyze(pkg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(All())*len(pkg.Roots()) {
		t.Errorf("jobs = %d, want checkers x roots = %d", rep.Jobs, len(All())*len(pkg.Roots()))
	}
	// One finding per injected bug, across >= 2 checkers and >= 2 files.
	byChecker := map[string]int{}
	byFile := map[string]bool{}
	for _, d := range rep.Diagnostics {
		byChecker[d.Checker]++
		byFile[d.File] = true
	}
	// The counting family: semabalance/poolexhaust/depthbound flag their
	// unbalanced corpus cases (the balanced twins stay clean), and the
	// counting waitgroup adds the negative-counter case to the original
	// Add-after-Wait one. The relational pair: poolexchange flags the
	// hoarding loop, and lockbalance the suppressed-for-doublelock
	// over-unlock (its difference tracker fails on Unlock-before-Lock).
	want := map[string]int{
		"doublelock": 1, "fileleak": 1, "sqlrows": 1, "waitgroup": 2,
		"semabalance": 1, "poolexhaust": 1, "depthbound": 1,
		"lockbalance": 1, "poolexchange": 1,
	}
	if !reflect.DeepEqual(byChecker, want) {
		t.Errorf("findings by checker = %v, want %v", byChecker, want)
	}
	if len(byFile) < 2 {
		t.Errorf("findings span %d files, want >= 2", len(byFile))
	}
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (//rasc:ignore=doublelock)", rep.Suppressed)
	}
	// The cross-file double lock must carry an interprocedural trace
	// ending in the helper's file.
	var dl *Diagnostic
	for i := range rep.Diagnostics {
		if rep.Diagnostics[i].Checker == "doublelock" {
			dl = &rep.Diagnostics[i]
		}
	}
	if dl == nil || !strings.HasSuffix(dl.File, "util.go") || dl.Label != "mu" {
		t.Fatalf("doublelock diagnostic = %+v", dl)
	}
	entered := false
	for _, tp := range dl.Trace {
		if tp.Enter {
			entered = true
		}
	}
	if !entered {
		t.Error("cross-file trace must record the call entry hop")
	}
}

func TestDriverDeterministicAcrossPoolSizes(t *testing.T) {
	pkg := loadCorpus(t)
	var reports []*Report
	for _, par := range []int{1, 4} {
		rep, err := Analyze(pkg, Config{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	a, _ := json.Marshal(reports[0])
	b, _ := json.Marshal(reports[1])
	if !bytes.Equal(a, b) {
		t.Error("report differs between parallel=1 and parallel=4")
	}
}

// The shared-skeleton reuse layer must not introduce scheduling
// dependence: a synthetic multi-file corpus analyzed with a fresh
// package per pool size (so each run builds the skeleton cache under
// its own concurrency) yields byte-identical reports at parallel 1 and 8.
func TestDriverDeterministicOnSynthCorpus(t *testing.T) {
	gen := synth.GenerateGo(synth.GoConfig{
		Seed: 11, Files: 4, FuncsPerFile: 4, StmtsPerFn: 18,
		UnsafePerFile: 2, Racy: true,
	})
	files := make([]gosrc.File, len(gen))
	for i, f := range gen {
		files[i] = gosrc.File{Name: f.Name, Src: f.Src}
	}
	var reports [][]byte
	for _, par := range []int{1, 8} {
		pkg, err := LoadFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(pkg, Config{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diagnostics) == 0 {
			t.Fatal("synthetic corpus produced no findings; corpus too weak to test determinism")
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("report differs between parallel=1 and parallel=8 on the synthetic corpus")
	}
}

func TestSuppressionVariants(t *testing.T) {
	src := `package p

import "sync"

var mu sync.Mutex

func A() { mu.Unlock() } //rasc:ignore
func B() { mu.Unlock() } //rasc:ignore=doublelock
func C() { mu.Unlock() } //rasc:ignore=fileleak
func D() { mu.Unlock() }
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "s.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := Get("doublelock")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{dl}})
	if err != nil {
		t.Fatal(err)
	}
	// A and B are suppressed; C names the wrong checker; D is plain.
	if rep.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", rep.Suppressed)
	}
	var lines []int
	for _, d := range rep.Diagnostics {
		lines = append(lines, d.Line)
	}
	if len(lines) != 2 || lines[0] != 9 || lines[1] != 10 {
		t.Errorf("diagnostic lines = %v, want [9 10]", lines)
	}
}

func TestEntriesOverrideAndErrors(t *testing.T) {
	pkg := loadCorpus(t)
	dl, _ := Get("doublelock")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{dl}, Entries: []string{"LockTwice"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 1 || len(rep.Diagnostics) != 1 {
		t.Errorf("jobs = %d, diags = %d", rep.Jobs, len(rep.Diagnostics))
	}
	if _, err := Analyze(pkg, Config{Entries: []string{"NoSuchFn"}}); err == nil {
		t.Error("undefined entry must error")
	}
	if _, err := LoadPaths([]string{"testdata/does-not-exist"}); err == nil {
		t.Error("missing path must error")
	}
}

func TestRoots(t *testing.T) {
	pkg := loadCorpus(t)
	roots := pkg.Roots()
	want := []string{"Broadcast", "CopyFile", "DeepTrace", "ExchangeBalanced", "ExchangeHoard",
		"LockTwice", "NegativeDone", "NestShallow", "PoolBalanced", "PoolSpike",
		"QueryUsers", "ReadConfig", "SemBalanced", "SemHold", "SuppressedUnlock"}
	if !reflect.DeepEqual(roots, want) {
		t.Errorf("roots = %v, want %v", roots, want)
	}
}

// A plain call never links to a method through its bare-name alias: the
// builtin len must not call T.len. If it did, T.len would recurse into
// itself (a false doublelock) and never return, hiding every statement
// after a len call (the leak in Leak). A method call t.len() still
// links to T.len.
func TestPlainCallsSkipMethodAliases(t *testing.T) {
	pkg, err := LoadFiles([]gosrc.File{{Name: "p.go", Src: `package p

import (
	"os"
	"sync"
)

type T struct {
	mu    sync.Mutex
	items []int
}

func (t *T) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

func Size(t *T) int { return t.len() }

func Leak(xs []string) {
	if len(xs) == 0 {
		return
	}
	f, _ := os.Open(xs[0])
	_ = f
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(pkg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Checker != "fileleak" {
		t.Errorf("diagnostics = %+v, want exactly one fileleak", rep.Diagnostics)
	}
	var callees []string
	for _, id := range pkg.Prog.ByName["Size"].Callees {
		callees = append(callees, pkg.Prog.Funcs[id].Name)
	}
	if !reflect.DeepEqual(callees, []string{"T.len"}) {
		t.Errorf("Size calls %v, want [T.len]", callees)
	}
	if got := pkg.Prog.ByName["T.len"].Callees; len(got) != 0 {
		t.Errorf("T.len calls function IDs %v, want none (len is the builtin)", got)
	}
}

func goldenCompare(t *testing.T, got []byte, path string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s", path, got)
	}
}

func TestGoldenJSON(t *testing.T) {
	pkg := loadCorpus(t)
	rep, err := Analyze(pkg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The report must round-trip as JSON.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	goldenCompare(t, buf.Bytes(), "testdata/report.json.golden")
}

func TestGoldenSARIF(t *testing.T) {
	pkg := loadCorpus(t)
	rep, err := Analyze(pkg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.SARIF(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural SARIF sanity: versioned log, one run, rule per checker,
	// every result's ruleId declared.
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF shape: version=%s runs=%d", log.Version, len(log.Runs))
	}
	rules := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, res := range log.Runs[0].Results {
		if !rules[res.RuleID] {
			t.Errorf("result rule %q not declared", res.RuleID)
		}
		if len(res.Locations) == 0 || res.Locations[0].PhysicalLocation.Region.StartLine <= 0 {
			t.Errorf("result %q lacks a positioned location", res.RuleID)
		}
	}
	goldenCompare(t, buf.Bytes(), "testdata/report.sarif.golden")
}

func TestTextRenderer(t *testing.T) {
	pkg := loadCorpus(t)
	rep, err := Analyze(pkg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Text(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"doublelock", "fileleak", "1 suppressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestHasFindings(t *testing.T) {
	r := &Report{}
	if r.HasFindings() {
		t.Error("empty report has no findings")
	}
	r.Diagnostics = []Diagnostic{{Severity: SeverityNote}}
	if r.HasFindings() {
		t.Error("notes alone are not findings")
	}
	r.Diagnostics = append(r.Diagnostics, Diagnostic{Severity: SeverityWarning})
	if !r.HasFindings() {
		t.Error("warnings are findings")
	}
}
