package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rasc/internal/analysis"
	"rasc/internal/obs"
	"rasc/internal/server"
)

// corpus is the analysis package's known-buggy test corpus.
const corpus = "../../internal/analysis/testdata/src"

// TestMain makes the test binary double as gocheck: started with
// GOCHECK_TEST_MAIN=1, it runs main on its arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("GOCHECK_TEST_MAIN") == "1" {
		main()
	}
	code := m.Run()
	if internalCopy.dir != "" {
		os.RemoveAll(internalCopy.dir)
	}
	os.Exit(code)
}

// internalCopy holds a copy of the non-test .go files of this
// repository's internal/ tree, taken at most once per test binary, so
// that the in-process reference and every gocheck run over it analyse
// the same bytes, whatever edits the tree sees meanwhile.
var internalCopy struct {
	once sync.Once
	dir  string
	err  error
}

// internalTree returns the copy's "DIR/internal/..." pattern.
func internalTree(t *testing.T) string {
	t.Helper()
	internalCopy.once.Do(func() {
		internalCopy.dir, internalCopy.err = os.MkdirTemp("", "gocheck-internal-")
		if internalCopy.err != nil {
			return
		}
		internalCopy.err = filepath.WalkDir("../../internal", func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			dst := filepath.Join(internalCopy.dir, strings.TrimPrefix(path, "../../"))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			return os.WriteFile(dst, src, 0o644)
		})
	})
	if internalCopy.err != nil {
		t.Fatal(internalCopy.err)
	}
	return filepath.Join(internalCopy.dir, "internal") + "/..."
}

// gocheck runs the command with args and returns its exit code,
// standard output and standard error.
func gocheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GOCHECK_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// reference holds an in-process one-shot report over the copy of
// internal/..., analyzed at most once per test binary.
var reference struct {
	once sync.Once
	rep  *analysis.Report
	err  error
}

func internalReport(t *testing.T) *analysis.Report {
	t.Helper()
	tree := internalTree(t)
	reference.once.Do(func() {
		pkg, err := analysis.LoadPaths([]string{tree})
		if err == nil {
			reference.rep, err = analysis.Analyze(pkg, analysis.Config{})
		}
		reference.err = err
	})
	if reference.err != nil {
		t.Fatal(reference.err)
	}
	return reference.rep
}

// render renders rep in one of gocheck's output formats.
func render(t *testing.T, format string, rep *analysis.Report) string {
	t.Helper()
	var b strings.Builder
	if err := renderers[format](rep, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Every built-in checker's property spec lints clean: a dead state,
// vacuous or shadowed assert, or loose relation band in a shipped spec
// is a checker bug.
func TestSpeclintClean(t *testing.T) {
	n := len(analysis.All())
	code, stdout, stderr := gocheck(t, "-speclint")
	if code != 0 || !strings.Contains(stdout, fmt.Sprintf("speclint clean over %d checker(s)", n)) {
		t.Fatalf("exit %d, want 0 and a clean lint of %d checkers:\n%s%s", code, n, stdout, stderr)
	}
}

// A run over internal/... with the trace, the metrics snapshot and
// progress all on reports exactly what the plain in-process run reports,
// each artifact is well-formed, and the snapshot holds the run's driver
// and relational spec metrics.
func TestInstrumentedRunOverInternal(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	code, stdout, stderr := gocheck(t, "-format", "json", "-trace-out", tracePath,
		"-metrics-json", metricsPath, "-progress", internalTree(t))
	if code != 3 {
		t.Fatalf("exit %d, want 3 (stderr: %s)", code, stderr)
	}
	if stdout != render(t, "json", internalReport(t)) {
		t.Error("instrumented report differs from the plain in-process report")
	}
	for path, validate := range map[string]func([]byte) error{
		tracePath:   obs.ValidateTraceJSON,
		metricsPath: obs.ValidateMetricsJSON,
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["driver.jobs"] == 0 {
		t.Error("metrics snapshot: driver.jobs observed no jobs")
	}
	for _, name := range []string{"spec.relations", "spec.relation_states", "spec.relation_saturations"} {
		_, counter := snap.Counters[name]
		_, gauge := snap.Gauges[name]
		if !counter && !gauge {
			t.Errorf("metrics snapshot lacks %s", name)
		}
	}
	if !strings.Contains(stderr, "progress: ") {
		t.Errorf("no progress lines on stderr: %q", stderr)
	}
}

// gocheck -explain attaches a derivation chain to every finding it
// prints, and every hop of the chain names the rule that made it.
func TestExplainRunCarriesProvenance(t *testing.T) {
	code, stdout, stderr := gocheck(t, "-format", "json", "-explain", corpus)
	if code != 3 {
		t.Fatalf("exit %d, want 3 (stderr: %s)", code, stderr)
	}
	var rep struct{ Diagnostics []analysis.Diagnostic }
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) == 0 {
		t.Fatal("corpus produced no findings")
	}
	for _, d := range rep.Diagnostics {
		if len(d.Provenance) == 0 {
			t.Errorf("%s finding at %s:%d has no provenance", d.Checker, d.File, d.Line)
		}
		for i, ps := range d.Provenance {
			if ps.Rule == "" {
				t.Errorf("%s finding at %s:%d: provenance hop %d has no rule", d.Checker, d.File, d.Line, i)
			}
		}
	}
}

// gocheck -server renders the daemon's report over internal/... to the
// same bytes as an in-process run.
func TestServerModeOverInternal(t *testing.T) {
	h := server.NewHandler(server.HandlerConfig{Engine: analysis.NewEngine(analysis.EngineConfig{})})
	srv := httptest.NewServer(h.Root())
	defer srv.Close()
	code, stdout, stderr := gocheck(t, "-server", srv.URL, "-format", "sarif", internalTree(t))
	if code != 3 {
		t.Fatalf("exit %d, want 3 (stderr: %s)", code, stderr)
	}
	if stdout != render(t, "sarif", internalReport(t)) {
		t.Error("-server SARIF differs from the in-process SARIF")
	}
}

// Spaces around the names of a -checkers list are ignored: the spaced
// list gives the same stdout and exit code as the unspaced one, one-shot
// and with -server.
func TestSpacedCheckerList(t *testing.T) {
	h := server.NewHandler(server.HandlerConfig{Engine: analysis.NewEngine(analysis.EngineConfig{})})
	srv := httptest.NewServer(h.Root())
	defer srv.Close()
	for _, mode := range [][]string{nil, {"-server", srv.URL}} {
		wantCode, want, stderr := gocheck(t, append(mode, "-checkers", "doublelock,fileleak", corpus)...)
		if wantCode != 3 {
			t.Fatalf("%v unspaced: exit %d, want 3 (stderr: %s)", mode, wantCode, stderr)
		}
		code, got, stderr := gocheck(t, append(mode, "-checkers", "doublelock, fileleak", corpus)...)
		if code != wantCode || got != want {
			t.Errorf("%v spaced: exit %d, want %d; stdout equal: %v (stderr: %s)", mode, code, wantCode, got == want, stderr)
		}
	}
}

// A //line directive does not move a finding: the report names the
// physical file, so the line is that file's own. The leak below is at
// a.go:11, where a line-adjusted position would say 501, a line a.go
// does not have.
func TestLineDirectiveKeepsPhysicalLine(t *testing.T) {
	dir := t.TempDir()
	src := `package demo

import "os"

func main() {
	Load()
}

//line generated.y:500
func Load() {
	f, _ := os.Open("config")
	parse(f)
}

func parse(f File) {}
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := gocheck(t, "-checkers", "fileleak", dir)
	if code != 3 {
		t.Fatalf("exit %d, want 3 (stderr: %s)", code, stderr)
	}
	want := filepath.Join(dir, "a.go") + ":11: warning: fileleak: "
	if !strings.HasPrefix(stdout, want) {
		t.Errorf("report:\n%s\nwant a finding starting %q", stdout, want)
	}
}

// A syntax error below a //line directive is reported at the file and
// line it sits on, not at the position the directive names: a six-line
// a.go with "//line generated.y:500" above an unfinished assignment
// fails at a.go:6:1, not at generated.y:502, a file that does not
// exist.
func TestLineDirectiveKeepsSyntaxErrorPosition(t *testing.T) {
	dir := t.TempDir()
	src := "package demo\n\n//line generated.y:500\nfunc f() {\n\tx := \n}\n"
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := gocheck(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	want := filepath.Join(dir, "a.go") + ":6:1: expected operand"
	if !strings.Contains(stderr, want) || strings.Contains(stderr, "generated.y") {
		t.Errorf("stderr:\n%s\nwant the error at %q and no mention of generated.y", stderr, want)
	}
}

// badValues are flag values gocheck must reject as usage errors.
var badValues = [][]string{
	{"-fail-on", "bogus"},
	{"-format", "yaml"},
}

// A bad -fail-on or -format value, or a flag only -server reads, fails
// the one-shot run with exit 2 before it loads or analyzes anything, so
// nothing reaches the cache directory. A valid run over the same corpus
// is the control: it fills the cache and exits 3 on the corpus's
// findings.
func TestBadFlagValuesFailBeforeAnalysis(t *testing.T) {
	serverFlags := [][]string{{"-program", "p"}, {"-server-timeout", "1s"}}
	for _, bad := range append(serverFlags, badValues...) {
		dir := filepath.Join(t.TempDir(), "cache")
		code, _, stderr := gocheck(t, append(bad, "-cache-dir", dir, corpus)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", bad, code, stderr)
		}
		if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
			t.Errorf("%v: the run wrote %d file(s) to the cache directory", bad, len(ents))
		}
	}

	dir := filepath.Join(t.TempDir(), "cache")
	if code, _, stderr := gocheck(t, "-format", "json", "-cache-dir", dir, corpus); code != 3 {
		t.Fatalf("valid run: exit %d, want 3 (stderr: %s)", code, stderr)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
		t.Fatalf("valid run left no cache files (%v)", err)
	}
}

// In -server mode a bad value, or a flag only an in-process run reads,
// fails with exit 2 before any request reaches the daemon.
func TestBadFlagValuesSendNoRequest(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request expected", http.StatusInternalServerError)
	}))
	defer srv.Close()
	dir := t.TempDir()
	oneShotFlags := [][]string{
		{"-cache-dir", filepath.Join(dir, "cache")},
		{"-trace-out", filepath.Join(dir, "trace.json")},
		{"-metrics-json", filepath.Join(dir, "metrics.json")},
		{"-progress"},
		{"-cpuprofile", filepath.Join(dir, "cpu.prof")},
		{"-memprofile", filepath.Join(dir, "mem.prof")},
	}
	for _, bad := range append(oneShotFlags, badValues...) {
		code, _, stderr := gocheck(t, append(bad, "-server", srv.URL, corpus)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", bad, code, stderr)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d request(s) reached the server", n)
	}
}

// selfFinding is one self-check finding without its line: the checker,
// the file relative to the repository root, the enclosing function and
// the message.
type selfFinding struct {
	Checker, File, Fn, Message string
}

// selfCheckGolden is every finding of gocheck over this repository's
// internal/... outside testdata/. A change that adds or removes one
// updates this list and says why in CHANGES.md; each entry names its
// cause.
var selfCheckGolden = []selfFinding{
	// The registry's plain Get(name) is read as a sync.Pool Get.
	{"poolexchange", "internal/analysis/checker.go", "Resolve", "pool name: more than 4 Get results outstanding (Get/Put exchange unbalanced)"},
	{"poolexchange", "internal/analysis/render.go", "Report.SARIF", "pool name: more than 4 Get results outstanding (Get/Put exchange unbalanced)"},
	// Every local named wg is one WaitGroup, and ir.ForEach waits on its
	// own wg several times on the load path before analyze's Add.
	{"waitgroup", "internal/analysis/driver.go", "analyze", "WaitGroup wg misused: Add after Wait, or more Done calls than the Add total"},
	// A later ForEach call's Add after an earlier call's Wait, on the
	// same one wg.
	{"waitgroup", "internal/ir/foreach.go", "ForEach", "WaitGroup wg misused: Add after Wait, or more Done calls than the Add total"},
	// r.URL.Query() is read as an SQL query.
	{"sqlrows", "internal/server/server.go", "Handler.handleMetrics", "rows Query possibly still open when the entry function returns"},
}

// siteLine is the "@line" an allocation-site label carries.
var siteLine = regexp.MustCompile(`@[0-9]+`)

// The self-check over internal/... reports exactly selfCheckGolden
// outside testdata/.
func TestSelfCheckGolden(t *testing.T) {
	rep := internalReport(t)
	root := filepath.Dir(strings.TrimSuffix(internalTree(t), "/..."))
	var got []selfFinding
	for _, d := range rep.Diagnostics {
		file, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatal(err)
		}
		file = filepath.ToSlash(file)
		if strings.Contains(file, "/testdata/") {
			continue
		}
		fn := d.Entry
		if len(d.Trace) > 0 {
			fn = d.Trace[len(d.Trace)-1].Fn
		}
		got = append(got, selfFinding{d.Checker, file, fn, siteLine.ReplaceAllString(d.Message, "")})
	}
	want := append([]selfFinding(nil), selfCheckGolden...)
	for _, s := range [][]selfFinding{got, want} {
		sort.Slice(s, func(i, j int) bool { return fmt.Sprint(s[i]) < fmt.Sprint(s[j]) })
	}
	if !reflect.DeepEqual(got, want) {
		var b strings.Builder
		for _, f := range got {
			fmt.Fprintf(&b, "\t{%q, %q, %q, %q},\n", f.Checker, f.File, f.Fn, f.Message)
		}
		t.Errorf("self-check findings outside testdata/ differ from selfCheckGolden; got:\n%s", b.String())
	}
}
