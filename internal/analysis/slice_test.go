package analysis

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"rasc/internal/core"
	"rasc/internal/gosrc"
	"rasc/internal/minic"
	"rasc/internal/pdm"
	"rasc/internal/synth"
)

// sliceCorpus is a small synthetic package: one independent root per
// file, so an edit to one file dirties exactly that file's root.
func sliceCorpus() map[string]string {
	files := map[string]string{}
	for _, f := range synth.GenerateGo(synth.GoConfig{
		Seed: 11, Files: 4, FuncsPerFile: 4, StmtsPerFn: 18,
		UnsafePerFile: 2, Racy: true,
	}) {
		files[f.Name] = f.Src
	}
	return files
}

// extraRootSrc adds a root that reaches into existing entries' helpers
// and writes a shared variable one of them races on: unrelated to every
// existing entry, since none of them can call it.
const extraRootSrc = `package bench

func Extra() {
	g0_1(2)
	nest1(1)
	shared0 = 5
}
`

func loadMap(t *testing.T, files map[string]string) *Package {
	t.Helper()
	pkg, err := LoadFiles(sortedFiles(files))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

var workLine = regexp.MustCompile(`(?m)^\twork\((\d+)\)$`)

// editWork rewrites the first top-level work(N) statement of src, which
// changes its function's fingerprint but no line number.
func editWork(t *testing.T, src string, lit int) string {
	t.Helper()
	loc := workLine.FindStringIndex(src)
	if loc == nil {
		t.Fatal("no work(N) line to edit")
	}
	return src[:loc[0]] + fmt.Sprintf("\twork(%d)", lit) + src[loc[1]:]
}

// Each entry's skeleton has a variable per CFG node of its call-graph
// closure and nothing more: without projection merging exactly the
// closure's nodes, with it one merge intermediate per call site whose
// return the skeleton wires (a non-deferred call to a defined function).
func TestSkeletonVarsMatchEntryClosure(t *testing.T) {
	pkg := loadMap(t, sliceCorpus())
	callees := eventCallees()
	for _, opts := range []core.Options{{}, {NoProjMerge: true}} {
		for _, e := range pkg.Roots() {
			sk, err := pdm.BuildSkeleton(pkg.Prog, e, opts,
				func(call *minic.CallExpr, _ string) bool { return callees[call.Name] })
			if err != nil {
				t.Fatal(err)
			}
			nodes, returns := 0, 0
			for _, id := range pkg.Prog.ClosureNodes(e) {
				nodes++
				n := pkg.Prog.Graph.Nodes[id]
				if n.Kind == minic.NAction && n.Call != nil && !callees[n.Call.Name] {
					if _, defined := pkg.Prog.MC.Callee(n.Call); defined {
						returns++
					}
				}
			}
			want := nodes
			if !opts.NoProjMerge {
				want += returns
			}
			if got := sk.BaseStats().Vars; got != want {
				t.Errorf("%+v: entry %s has %d vars, want %d (%d closure nodes, %d wired returns)",
					opts, e, got, want, nodes, returns)
			}
			if nodes >= len(pkg.Prog.Graph.Nodes) {
				t.Fatalf("entry %s reaches the whole program; corpus too weak to test slicing", e)
			}
		}
	}
}

// Adding a root no existing entry can reach changes nothing about the
// existing entries: not their skeletons' base stats, not any job's
// layered stats or diagnostics, and not the report over those entries.
func TestUnrelatedRootLeavesEntriesUnchanged(t *testing.T) {
	files := sliceCorpus()
	before := loadMap(t, files)
	files["zz_extra.go"] = extraRootSrc
	after := loadMap(t, files)
	roots := before.Roots()
	if got := after.Roots(); len(got) != len(roots)+1 {
		t.Fatalf("roots after adding Extra = %v, want %v plus Extra", got, roots)
	}

	for _, e := range roots {
		skB, skA := before.skeleton(e, nil), after.skeleton(e, nil)
		if skB.err != nil || skA.err != nil {
			t.Fatal(skB.err, skA.err)
		}
		if skA.sk.BaseStats() != skB.sk.BaseStats() {
			t.Errorf("%s: base stats %+v, were %+v", e, skA.sk.BaseStats(), skB.sk.BaseStats())
		}
		for _, c := range All() {
			recB, err := runJob(before, c, e, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			recA, err := runJob(after, c, e, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if recA.Stats != recB.Stats || recA.Base != recB.Base {
				t.Errorf("%s/%s: job stats %+v/%+v, were %+v/%+v", c.Name, e, recA.Stats, recA.Base, recB.Stats, recB.Base)
			}
			if !reflect.DeepEqual(recA.Diagnostics, recB.Diagnostics) {
				t.Errorf("%s/%s: diagnostics changed:\nnow %+v\nwas %+v", c.Name, e, recA.Diagnostics, recB.Diagnostics)
			}
		}
	}

	for _, parallel := range []int{1, 8} {
		repB, err := Analyze(loadMap(t, sliceCorpus()), Config{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		repA, err := Analyze(loadMap(t, files), Config{Parallel: parallel, Entries: roots})
		if err != nil {
			t.Fatal(err)
		}
		if repA.Solver != repB.Solver {
			t.Errorf("parallel=%d: solver totals %+v, were %+v", parallel, repA.Solver, repB.Solver)
		}
		if g, w := findingsJSON(t, repA.onlyDiagnostics()), findingsJSON(t, repB.onlyDiagnostics()); g != w {
			t.Errorf("parallel=%d: findings changed:\nnow %s\nwas %s", parallel, g, w)
		}
	}
}

// unrelatedSrc is a file of n functions no entry of sliceCorpus can
// reach, each with file, lock and spawn events and 23 CFG nodes, so
// that any per-job pass over the whole program has work to do. It
// declares no package-level names, so the existing entries translate as
// before.
func unrelatedSrc(n int) string {
	var b strings.Builder
	b.WriteString("package bench\n\nimport (\n\t\"os\"\n\t\"sync\"\n)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\nfunc zzUnrelated%d() {\n\tf, _ := os.Open(\"u\")\n\tuse(f)\n", i)
		b.WriteString("\tvar mu sync.Mutex\n\tmu.Lock()\n")
		for k := 0; k < 16; k++ {
			fmt.Fprintf(&b, "\twork(%d)\n", k)
		}
		fmt.Fprintf(&b, "\tmu.Unlock()\n\tgo zzUnrelated%d()\n}\n", (i+1)%n)
	}
	return b.String()
}

// jobAlloc runs one job and returns its record and the bytes it
// allocated: the least over eight runs after a warm-up, so that work
// the package memoizes across jobs (skeletons, the concurrency model,
// goroutine closures) is not counted.
func jobAlloc(t *testing.T, pkg *Package, c *Checker, entry string, ob *obsState) (jobRecord, uint64) {
	t.Helper()
	var rec jobRecord
	least := uint64(math.MaxUint64)
	for i := 0; i < 9; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := runJob(pkg, c, entry, ob, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		rec = r
	}
	return rec, least
}

// allocSlack is the per-job allocation growth the scaling test
// tolerates: 2% of the job's bytes plus 2 KiB, under 10 KiB for every
// job, and far below what one pass over the added functions' 23,000
// CFG nodes allocates. Plain builds measure no growth at all; under the
// race detector, which drops sync.Pool entries at random, a job's bytes
// vary by up to about 1.5% from run to run.
func allocSlack(bytes uint64) uint64 { return bytes/50 + 2048 }

// Every per-job cost scales with the entry's slice, not the program.
// Checking an entry inside sliceCorpus and inside the same corpus plus
// 1,000 unrelated functions gives every checker's job identical solver
// stats and diagnostics, and allocates no more bytes (see allocSlack),
// with and without explain. And once the entry's skeleton and the
// concurrency model are built, no job reads a CFG node outside the
// entry's slice: those nodes are removed, so a whole-program scan
// panics.
func TestJobCostScalesWithSlice(t *testing.T) {
	files := sliceCorpus()
	small := loadMap(t, files)
	files["zz_unrelated.go"] = unrelatedSrc(1000)
	big := loadMap(t, files)
	if added := len(big.Prog.Funcs) - len(small.Prog.Funcs); added != 1000 {
		t.Fatalf("unrelated file adds %d functions, want 1000", added)
	}
	entries := small.Roots()
	for _, explain := range []bool{false, true} {
		ob := newObsState(&Config{Explain: explain})
		for _, e := range entries {
			for _, c := range All() {
				recS, bytesS := jobAlloc(t, small, c, e, ob)
				recB, bytesB := jobAlloc(t, big, c, e, ob)
				label := fmt.Sprintf("explain=%v %s/%s", explain, c.Name, e)
				if recB.Stats != recS.Stats || recB.Base != recS.Base {
					t.Errorf("%s: job stats %+v/%+v with the unrelated functions, %+v/%+v without",
						label, recB.Stats, recB.Base, recS.Stats, recS.Base)
				}
				if !reflect.DeepEqual(recB.Diagnostics, recS.Diagnostics) {
					t.Errorf("%s: diagnostics changed with the unrelated functions", label)
				}
				if bytesB > bytesS+allocSlack(bytesS) {
					t.Errorf("%s: job allocates %d bytes with the unrelated functions, %d without",
						label, bytesB, bytesS)
				}
			}
		}
	}

	for _, e := range entries {
		pkg := loadMap(t, files)
		if err := pkg.skeleton(e, nil).err; err != nil {
			t.Fatal(err)
		}
		pkg.concModel()
		inSlice := map[string]bool{}
		for _, id := range pkg.Prog.Reachable(e) {
			inSlice[pkg.Prog.Funcs[id].Name] = true
		}
		nodes := pkg.Prog.Graph.Nodes
		removed := 0
		for id, n := range nodes {
			if !inSlice[n.Fn] {
				nodes[id] = nil
				removed++
			}
		}
		if removed < 23000 {
			t.Fatalf("%s: only %d CFG nodes lie outside the slice", e, removed)
		}
		ob := newObsState(&Config{Explain: true})
		for _, c := range All() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s/%s reads a CFG node outside its entry's slice: %v", c.Name, e, r)
					}
				}()
				if _, err := runJob(pkg, c, e, ob, nil); err != nil {
					t.Fatal(err)
				}
			}()
		}
	}
}

// onlyDiagnostics strips a report down to its findings, for comparing
// runs over different file sets.
func (r *Report) onlyDiagnostics() *Report {
	return &Report{Diagnostics: r.Diagnostics, Suppressed: r.Suppressed}
}

// Over an edit sequence, a resident engine memo-misses exactly the jobs
// of the entries each edit dirties — every checker on every entry whose
// summary the engine has not seen — and its reports stay byte-identical
// to one-shot Analyze runs.
func TestEngineMemoMissesOnlyDirtiedEntries(t *testing.T) {
	base := sliceCorpus()
	type step struct {
		name    string
		upserts map[string]string
		removes []string
	}
	steps := []step{
		{name: "initial", upserts: base},
		{name: "edit-gen_0", upserts: map[string]string{"gen_0.go": editWork(t, base["gen_0.go"], 9001)}},
		{name: "edit-gen_2", upserts: map[string]string{"gen_2.go": editWork(t, base["gen_2.go"], 9002)}},
		{name: "add-extra-root", upserts: map[string]string{"zz_extra.go": extraRootSrc}},
		{name: "remove-extra-root", removes: []string{"zz_extra.go"}},
		{name: "undo-gen_0", upserts: map[string]string{"gen_0.go": base["gen_0.go"]}},
	}
	checkers := len(All())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, parallel := range []int{1, 8} {
		runtime.GOMAXPROCS(parallel)
		eng := NewEngine(EngineConfig{})
		current := map[string]string{}
		seen := map[string]bool{} // entry summaries the engine has solved
		for _, st := range steps {
			req := CheckRequest{Removes: st.removes}
			for _, rm := range st.removes {
				delete(current, rm)
			}
			for name, src := range st.upserts {
				current[name] = src
				req.Upserts = append(req.Upserts, gosrc.File{Name: name, Src: src})
			}
			pkg := loadMap(t, current)
			dirty := 0
			for _, e := range pkg.Roots() {
				key := e + "@" + pkg.Prog.ByName[e].Summary.String()
				if !seen[key] {
					seen[key] = true
					dirty++
				}
			}

			got, err := eng.Check(req)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			label := fmt.Sprintf("parallel=%d/%s", parallel, st.name)
			if want := int64(checkers * dirty); got.MemoMisses != want {
				t.Errorf("%s: %d memo misses, want %d (%d checkers x %d dirtied entries)",
					label, got.MemoMisses, want, checkers, dirty)
			}
			if got.MemoHits+got.MemoMisses != int64(got.Jobs) {
				t.Errorf("%s: %d hits + %d misses for %d jobs", label, got.MemoHits, got.MemoMisses, got.Jobs)
			}
			want, err := Analyze(pkg, Config{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderAll(t, got), renderAll(t, want); g != w {
				t.Errorf("%s: engine output differs from one-shot:\nengine:\n%s\none-shot:\n%s", label, g, w)
			}
		}
	}
}

// A method named by its bare alias is the same entry as its canonical
// name: leak-mode checkers must query the method's own exit, and race
// and lockorder must start the entry goroutine at the method's own
// entry, not at a node of whatever function comes first.
func TestAliasEntryQueriesCanonicalExit(t *testing.T) {
	pkg := loadMap(t, map[string]string{"a.go": `package p

import (
	"os"
	"sync"
)

var a sync.Mutex
var b sync.Mutex
var x int

func Other() {}

type T struct{}

func (t *T) Run() {
	f, _ := os.Open("x")
	use(f)
	go backwards()
	x = 1
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func backwards() {
	x = 2
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}
`})
	run := pkg.Prog.ByName["Run"]
	if run == nil || run.Name == "Run" || pkg.Prog.Funcs[0] == run {
		t.Fatalf("front end registers no bare alias for the method Run, or puts it first")
	}
	var checkers []*Checker
	for _, name := range []string{"fileleak", "race", "lockorder"} {
		c, _ := Get(name)
		checkers = append(checkers, c)
	}
	var got []string
	for _, entry := range []string{run.Name, "Run"} {
		rep, err := Analyze(pkg, Config{Checkers: checkers, Entries: []string{entry}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diagnostics) != 3 {
			t.Fatalf("entry %s: diagnostics %+v, want the leak of f, the race on x and the a/b inversion", entry, rep.Diagnostics)
		}
		var findings []string
		for _, d := range rep.Diagnostics {
			findings = append(findings, fmt.Sprintf("%s:%d %s %v %v", d.Checker, d.Line, d.Message, d.Trace, d.SecondTrace))
		}
		got = append(got, strings.Join(findings, "\n"))
	}
	if got[0] != got[1] {
		t.Fatalf("alias entry reports\n%s\ncanonical\n%s", got[1], got[0])
	}
}
