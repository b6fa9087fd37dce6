package analysis

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"rasc/internal/core"
	"rasc/internal/gosrc"
	"rasc/internal/minic"
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
			sk, err := pkg.skeleton(e, opts, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes, returns := 0, 0
			for id, in := range pkg.Prog.ClosureNodes(e) {
				if !in {
					continue
				}
				nodes++
				n := pkg.Prog.Graph.Nodes[id]
				if n.Kind == minic.NAction && n.Call != nil && !callees[n.Call.Name] {
					if _, defined := pkg.Prog.MC.ByName[n.Call.Name]; defined {
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
		skB, err := before.skeleton(e, core.Options{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		skA, err := after.skeleton(e, core.Options{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if skA.BaseStats() != skB.BaseStats() {
			t.Errorf("%s: base stats %+v, were %+v", e, skA.BaseStats(), skB.BaseStats())
		}
		for _, c := range All() {
			recB, err := runJob(before, c, e, core.Options{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			recA, err := runJob(after, c, e, core.Options{}, nil, nil)
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
	for _, parallel := range []int{1, 8} {
		eng := NewEngine(EngineConfig{Parallel: parallel})
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
// name: leak-mode checkers must query the method's own exit, which lies
// in the slice, not a node of whatever function comes first.
func TestAliasEntryQueriesCanonicalExit(t *testing.T) {
	pkg := loadMap(t, map[string]string{"a.go": `package p

import "os"

func Other() {}

type T struct{}

func (t *T) Run() {
	f, _ := os.Open("x")
	use(f)
}
`})
	fileleak, _ := Get("fileleak")
	var canonical string
	for _, f := range pkg.Prog.Funcs {
		if f.Name != "Other" {
			canonical = f.Name
		}
	}
	if canonical == "Run" || pkg.Prog.ByName["Run"] == nil {
		t.Fatalf("front end registers no bare alias for the method %q", canonical)
	}
	var got []string
	for _, entry := range []string{canonical, "Run"} {
		rep, err := Analyze(pkg, Config{Checkers: []*Checker{fileleak}, Entries: []string{entry}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diagnostics) != 1 {
			t.Fatalf("entry %s: diagnostics %+v, want the leak of f", entry, rep.Diagnostics)
		}
		got = append(got, rep.Diagnostics[0].Message)
	}
	if got[0] != got[1] {
		t.Fatalf("alias entry reports %q, canonical %q", got[1], got[0])
	}
}
