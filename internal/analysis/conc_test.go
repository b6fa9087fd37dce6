package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rasc/internal/gosrc"
)

func loadRaceCorpus(t *testing.T) *Package {
	t.Helper()
	pkg, err := LoadPaths([]string{"testdata/race"})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func analyzeRace(t *testing.T, pkg *Package, parallel int) *Report {
	t.Helper()
	race, _ := Get("race")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{race}, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRaceCheckerSeededRace: the seeded two-goroutine race on counter is
// reported with a witness trace per goroutine; the mutex-guarded total
// is not reported.
func TestRaceCheckerSeededRace(t *testing.T) {
	rep := analyzeRace(t, loadRaceCorpus(t), 0)
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want exactly the counter race", rep.Diagnostics)
	}
	d := rep.Diagnostics[0]
	if d.Checker != "race" || d.Label != "counter" || d.Severity != SeverityError {
		t.Fatalf("diagnostic = %+v", d)
	}
	if len(d.Trace) == 0 || len(d.SecondTrace) == 0 {
		t.Fatalf("race finding needs two witness traces, got %d and %d hops", len(d.Trace), len(d.SecondTrace))
	}
	// The first trace stays in main; the second must enter the spawned
	// goroutine's body.
	entered := false
	for _, tp := range d.SecondTrace {
		if tp.Enter && tp.Fn == "update" {
			entered = true
		}
	}
	if !entered {
		t.Errorf("second trace must enter the spawned goroutine: %+v", d.SecondTrace)
	}
	for _, d := range rep.Diagnostics {
		if d.Label == "total" {
			t.Error("mutex-guarded variable must not be reported")
		}
	}
}

const raceGuardedSrc = `package p

import "sync"

var mu sync.Mutex
var counter int

func main() {
	go update()
	mu.Lock()
	counter = 1
	mu.Unlock()
}

func update() {
	mu.Lock()
	counter++
	mu.Unlock()
}
`

// TestRaceCheckerGuarded: once every counter access is guarded by the
// same mutex, the checker reports nothing.
func TestRaceCheckerGuarded(t *testing.T) {
	src := raceGuardedSrc
	pkg, err := LoadFiles([]gosrc.File{{Name: "g.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeRace(t, pkg, 0)
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("guarded program must be race-free, got %+v", rep.Diagnostics)
	}
}

const raceRWLockSrc = `package p

import "sync"

var mu sync.RWMutex
var state int

func main() {
	go reader()
	mu.Lock()
	state = 1
	mu.Unlock()
}

func reader() {
	mu.RLock()
	use(state)
	mu.RUnlock()
}

func use(v int) {}
`

// raceRWLockRacySrc drops the writer's Lock from raceRWLockSrc.
var raceRWLockRacySrc = strings.Replace(raceRWLockSrc, "\tmu.Lock()\n\tstate = 1\n\tmu.Unlock()", "\tstate = 1", 1)

// TestRaceCheckerRWLock: two RLock-protected reads do not exclude each
// other, but they do not race either (no write); a write under Lock
// against a read under RLock of the same lock is protected.
func TestRaceCheckerRWLock(t *testing.T) {
	src := raceRWLockSrc
	pkg, err := LoadFiles([]gosrc.File{{Name: "rw.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeRace(t, pkg, 0)
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("write under Lock vs read under RLock is protected, got %+v", rep.Diagnostics)
	}
	// Drop the writer's Lock: now the RLock does not protect the read.
	racy := raceRWLockRacySrc
	pkg2, err := LoadFiles([]gosrc.File{{Name: "rw.go", Src: racy}})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := analyzeRace(t, pkg2, 0)
	if len(rep2.Diagnostics) != 1 {
		t.Fatalf("unguarded write vs RLock read must race, got %+v", rep2.Diagnostics)
	}
}

const raceSpawnInLoopSrc = `package p

var hits int

func main() {
	for i := 0; i < 10; i++ {
		go bump()
	}
}

func bump() {
	hits++
}
`

// TestRaceCheckerSpawnInLoop: a goroutine spawned in a loop is
// multi-instance — two copies of its own write race with each other.
func TestRaceCheckerSpawnInLoop(t *testing.T) {
	src := raceSpawnInLoopSrc
	pkg, err := LoadFiles([]gosrc.File{{Name: "loop.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeRace(t, pkg, 0)
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Label != "hits" {
		t.Fatalf("loop-spawned goroutine must race with itself, got %+v", rep.Diagnostics)
	}
}

const lockOrderSrc = `package p

import "sync"

var a sync.Mutex
var b sync.Mutex

func main() {
	go backwards()
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func backwards() {
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}
`

// lockOrderConsistentSrc takes a before b in both goroutines.
var lockOrderConsistentSrc = strings.Replace(lockOrderSrc, "\tb.Lock()\n\ta.Lock()\n\ta.Unlock()\n\tb.Unlock()",
	"\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()", 1)

// TestLockOrderChecker: AB in one goroutine and BA in another is an
// inversion; consistent order is not.
func TestLockOrderChecker(t *testing.T) {
	src := lockOrderSrc
	pkg, err := LoadFiles([]gosrc.File{{Name: "ord.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := Get("lockorder")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{lo}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want one inversion", rep.Diagnostics)
	}
	d := rep.Diagnostics[0]
	if d.Label != "a and b" || len(d.Trace) == 0 || len(d.SecondTrace) == 0 {
		t.Fatalf("inversion diagnostic = %+v", d)
	}

	consistent := lockOrderConsistentSrc
	pkg2, err := LoadFiles([]gosrc.File{{Name: "ord.go", Src: consistent}})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Analyze(pkg2, Config{Checkers: []*Checker{lo}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Diagnostics) != 0 {
		t.Fatalf("consistent order must not be flagged, got %+v", rep2.Diagnostics)
	}
}

const chanCloseSrc = `package p

func main() {
	ch := make(chan int)
	ok := make(chan int)
	ch <- 1
	close(ch)
	close(ch)
	ok <- 1
	close(ok)
}
`

// TestChanCloseChecker: double close and send-after-close are flagged,
// per channel object.
func TestChanCloseChecker(t *testing.T) {
	src := chanCloseSrc
	pkg, err := LoadFiles([]gosrc.File{{Name: "ch.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := Get("chanclose")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{cc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Label != "ch" {
		t.Fatalf("diagnostics = %+v, want one double close of ch", rep.Diagnostics)
	}
}

const rwLockCheckerSrc = `package p

import "sync"

var mu sync.RWMutex
var other sync.RWMutex

func main() {
	other.RLock()
	other.RUnlock()
	mu.RUnlock()
}
`

// TestRWLockChecker: RUnlock with no read lock held is flagged; a
// matched pair is not.
func TestRWLockChecker(t *testing.T) {
	src := rwLockCheckerSrc
	pkg, err := LoadFiles([]gosrc.File{{Name: "rwl.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rw, _ := Get("rwlock")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{rw}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Label != "mu" {
		t.Fatalf("diagnostics = %+v, want one unmatched RUnlock of mu", rep.Diagnostics)
	}
}

// TestRaceDeterministicParallel8: the race checker's report is
// byte-identical across repeated runs with a pool of 8.
func TestRaceDeterministicParallel8(t *testing.T) {
	pkg := loadRaceCorpus(t)
	var outs [][]byte
	for i := 0; i < 2; i++ {
		rep := analyzeRace(t, pkg, 8)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("race report differs across runs at parallel=8:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// TestRaceGoldenJSON and TestRaceGoldenSARIF lock the seeded race's
// rendering — including both witness traces — into golden files.
func TestRaceGoldenJSON(t *testing.T) {
	rep := analyzeRace(t, loadRaceCorpus(t), 0)
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, buf.Bytes(), "testdata/race_report.json.golden")
}

func TestRaceGoldenSARIF(t *testing.T) {
	rep := analyzeRace(t, loadRaceCorpus(t), 0)
	var buf bytes.Buffer
	if err := rep.SARIF(&buf); err != nil {
		t.Fatal(err)
	}
	// The race result must carry one codeFlow with two threadFlows.
	var log struct {
		Runs []struct {
			Results []struct {
				CodeFlows []struct {
					ThreadFlows []struct {
						Locations []struct{} `json:"locations"`
					} `json:"threadFlows"`
				} `json:"codeFlows"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("SARIF shape: %s", buf.Bytes())
	}
	cf := log.Runs[0].Results[0].CodeFlows
	if len(cf) != 1 || len(cf[0].ThreadFlows) != 2 {
		t.Fatalf("race result must have one codeFlow with two threadFlows, got %+v", cf)
	}
	goldenCompare(t, buf.Bytes(), "testdata/race_report.sarif.golden")
}

const fileIgnoreBaseSrc = `package p

import "sync"

var mu sync.Mutex

func main() {
	mu.Unlock()
}
`

// TestFileIgnoreDirective: //rasc:ignore-file suppresses every finding
// in the file (optionally per checker).
func TestFileIgnoreDirective(t *testing.T) {
	base := fileIgnoreBaseSrc
	for _, tc := range []struct {
		name      string
		directive string
		want      int // surviving diagnostics
	}{
		{"bare", "//rasc:ignore-file\n", 0},
		{"named", "//rasc:ignore-file=doublelock\n", 0},
		{"other-checker", "//rasc:ignore-file=fileleak\n", 1},
		{"not-a-directive", "//rasc:ignore-filex\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := LoadFiles([]gosrc.File{{Name: "f.go", Src: tc.directive + base}})
			if err != nil {
				t.Fatal(err)
			}
			dl, _ := Get("doublelock")
			rep, err := Analyze(pkg, Config{Checkers: []*Checker{dl}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Diagnostics) != tc.want {
				t.Errorf("diagnostics = %+v, want %d", rep.Diagnostics, tc.want)
			}
			if tc.want == 0 && rep.Suppressed != 1 {
				t.Errorf("suppressed = %d, want 1", rep.Suppressed)
			}
		})
	}
}

// TestSeverityThreshold covers HasFindingsAtLeast, the -fail-on logic.
func TestSeverityThreshold(t *testing.T) {
	r := &Report{Diagnostics: []Diagnostic{{Severity: SeverityWarning}}}
	if r.HasFindingsAtLeast(SeverityError) {
		t.Error("a warning is not at least an error")
	}
	if !r.HasFindingsAtLeast(SeverityWarning) || !r.HasFindingsAtLeast(SeverityNote) {
		t.Error("a warning satisfies the warning and note thresholds")
	}
}

// TestGithubRenderer checks the workflow-command format and escaping.
func TestGithubRenderer(t *testing.T) {
	r := &Report{Diagnostics: []Diagnostic{
		{Checker: "race", Severity: SeverityError, File: "a.go", Line: 7, Message: "bad 100%"},
		{Checker: "lockorder", Severity: SeverityWarning, File: "b.go", Line: 3, Message: "risky"},
	}}
	var buf bytes.Buffer
	if err := r.Github(&buf); err != nil {
		t.Fatal(err)
	}
	want := "::error file=a.go,line=7::race: bad 100%25\n::warning file=b.go,line=3::lockorder: risky\n"
	if buf.String() != want {
		t.Errorf("github output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

const entryClosureSrc = `package p

import "sync"

var mu sync.Mutex
var x int

func E() {
	go worker()
	helper()
}

func worker() {
	mu.Lock()
	x = 1
	mu.Unlock()
}

func helper() {}

func F() {
	helper()
	x = 2
}
`

// entryClosureGuardedSrc guards F's write in entryClosureSrc.
var entryClosureGuardedSrc = strings.Replace(entryClosureSrc, "\tx = 2\n", "\tmu.Lock()\n\tx = 2\n\tmu.Unlock()\n", 1)

// A goroutine returns only into callers on its own stack: E's flow
// through the shared helper must not continue into F, a root E never
// reaches. Otherwise E reports a race at F's write, and since E's cache
// key covers only E's closure, guarding that write in F would leave the
// stale finding cached. Cold, warm-after-edit and cacheless runs must
// all agree.
func TestRaceFlowStaysInEntryClosure(t *testing.T) {
	const src = entryClosureSrc
	guarded := entryClosureGuardedSrc
	race, _ := Get("race")
	lockorder, _ := Get("lockorder")
	checkers := []*Checker{race, lockorder}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ name, src string }{{"cold", src}, {"warm-after-edit-F", guarded}} {
		run := func(cache *Cache) *Report {
			pkg, err := LoadFiles([]gosrc.File{{Name: "p.go", Src: step.src}})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Analyze(pkg, Config{Checkers: checkers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		cached, fresh := run(cache), run(nil)
		if len(fresh.Diagnostics) != 0 {
			t.Fatalf("%s: cacheless run reports %+v, want nothing", step.name, fresh.Diagnostics)
		}
		if got, want := findingsJSON(t, cached), findingsJSON(t, fresh); got != want {
			t.Fatalf("%s: cached run differs from cacheless run:\ncached: %s\nfresh:  %s", step.name, got, want)
		}
	}
}

// concDiagnostics loads src as one file and runs the named checker.
func concDiagnostics(t *testing.T, src, checker string) []Diagnostic {
	t.Helper()
	pkg, err := LoadFiles([]gosrc.File{{Name: "p.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Get(checker)
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{c}})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Diagnostics
}

// lockFreeHelperOrderSrc takes rp.mu in Check and e.mu in finish, never
// one while holding the other. Both call the lock-free Counter.Inc once
// before taking their lock and once while holding it.
const lockFreeHelperOrderSrc = `package p

import "sync"

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

type residentProgram struct{ mu sync.Mutex }

type Engine struct {
	mu sync.Mutex
	c  Counter
}

func (e *Engine) Check(rp *residentProgram) {
	e.c.Inc()
	rp.mu.Lock()
	e.c.Inc()
	rp.mu.Unlock()
}

func (e *Engine) finish() {
	e.c.Inc()
	e.mu.Lock()
	e.c.Inc()
	e.mu.Unlock()
}

func (e *Engine) Run(rp *residentProgram) {
	e.Check(rp)
	e.finish()
}
`

// lockFreeHelperRaceSrc writes x under mu in both goroutines. Main calls
// the lock-free helper once before taking mu and once while holding it.
const lockFreeHelperRaceSrc = `package p

import "sync"

var mu sync.Mutex
var x int

func Main() {
	go worker()
	helper()
	mu.Lock()
	helper()
	x = 1
	mu.Unlock()
}

func worker() {
	mu.Lock()
	x = 2
	mu.Unlock()
}

func helper() {}
`

// A callee returns only to the call site it was entered from: Counter.Inc
// entered while Check holds rp.mu returns into Check, not into finish
// before finish takes e.mu, so the two locks are never nested.
func TestLockOrderReturnsToItsCallSite(t *testing.T) {
	if ds := concDiagnostics(t, lockFreeHelperOrderSrc, "lockorder"); len(ds) != 0 {
		t.Fatalf("no lock is taken while the other is held, got %+v", ds)
	}
}

// The helper entered under mu returns under mu: the write to x in Main
// is guarded, as is worker's.
func TestRaceReturnsToItsCallSite(t *testing.T) {
	if ds := concDiagnostics(t, lockFreeHelperRaceSrc, "race"); len(ds) != 0 {
		t.Fatalf("both writes to x hold mu, got %+v", ds)
	}
}
