package ir_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/synth"
)

const incrSrc = `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); }
void main() { mid(); }
`

// parseMC parses mini-C and fails the test on error.
func parseMC(t *testing.T, src string) *minic.Program {
	t.Helper()
	mc, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// relink parses src and, like the memoized Go front end for untouched
// files, hands every definition that prev holds unchanged back as prev's
// own *FuncDef.
func relink(t *testing.T, prev *minic.Program, src string) *minic.Program {
	t.Helper()
	mc := parseMC(t, src)
	for i, fd := range mc.Funcs {
		if old, ok := prev.ByName[fd.Name]; ok && reflect.DeepEqual(old, fd) {
			mc.Funcs[i], mc.ByName[fd.Name] = old, old
		}
	}
	return mc
}

// sameIR asserts that got, an incremental lowering, equals want, a
// lowering from scratch: the CFG down to node IDs and successors, the
// call graph, its SCCs, fingerprints, summaries and roots.
func sameIR(t *testing.T, step string, got, want *ir.Program) {
	t.Helper()
	if len(got.Funcs) != len(want.Funcs) {
		t.Fatalf("%s: %d funcs vs %d", step, len(got.Funcs), len(want.Funcs))
	}
	for i, f := range got.Funcs {
		w := want.Funcs[i]
		if f.Name != w.Name || f.Fingerprint != w.Fingerprint || f.Summary != w.Summary || f.SCC != w.SCC {
			t.Errorf("%s: func %s: fp/summary/scc diverge from full lowering", step, f.Name)
		}
		if !slices.Equal(f.Callees, w.Callees) {
			t.Errorf("%s: func %s: callees %v, want %v", step, f.Name, f.Callees, w.Callees)
		}
	}
	if !reflect.DeepEqual(got.SCCs, want.SCCs) {
		t.Errorf("%s: SCCs %v, want %v", step, got.SCCs, want.SCCs)
	}
	g, w := got.Graph, want.Graph
	if !reflect.DeepEqual(g.Nodes, w.Nodes) {
		for i := 0; i < min(len(g.Nodes), len(w.Nodes)); i++ {
			if !reflect.DeepEqual(g.Nodes[i], w.Nodes[i]) {
				t.Fatalf("%s: node %d is %+v, want %+v", step, i, *g.Nodes[i], *w.Nodes[i])
			}
		}
		t.Fatalf("%s: %d CFG nodes, want %d", step, len(g.Nodes), len(w.Nodes))
	}
	if !reflect.DeepEqual(g.Entry, w.Entry) || !reflect.DeepEqual(g.Exit, w.Exit) || !reflect.DeepEqual(g.Funcs, w.Funcs) {
		t.Errorf("%s: CFG entry, exit or function ranges diverge from full lowering", step)
	}
	if !slices.Equal(got.Roots(), want.Roots()) {
		t.Errorf("%s: roots %v, want %v", step, got.Roots(), want.Roots())
	}
}

// TestNewIncrementalEquivalence re-lowers a sequence of edited programs
// with shared FuncDef pointers (the shape the memoized front end
// produces) and checks every NewIncremental against a from-scratch New.
func TestNewIncrementalEquivalence(t *testing.T) {
	prev, err := ir.New(parseMC(t, incrSrc), ir.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	first := prev
	for _, st := range []struct{ step, src string }{
		// helper grows by a node: main's nodes shift.
		{"single edit", `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); leaf(); }
void main() { mid(); }
`},
		// A statement inserted into the first function shifts all others.
		{"insert into an earlier function", `
void leaf() { work(); work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); leaf(); }
void main() { mid(); }
`},
		{"delete a function", `
void leaf() { work(); work(); }
void mid() { leaf(); }

void main() { mid(); }
`},
		{"add a function", `
void leaf() { work(); work(); }
void mid() { leaf(); added(); }
void added() { leaf(); }
void main() { mid(); }
`},
		// Same lines again, so that every kept function lands on new IDs.
		{"edit after a resolution change", `
void leaf() { work(); }
void mid() { leaf(); added(); }
void added() { leaf(); }
void main() { mid(); }
`},
		// The same names in a new order: mid keeps its nodes, and its
		// callee edge to added must follow added's new ID.
		{"reorder functions", `
void leaf() { work(); }
void mid() { leaf(); added(); }
void main() { mid(); }
void added() { leaf(); }
`},
	} {
		got, err := ir.NewIncremental(relink(t, prev.MC, st.src), ir.Meta{}, prev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ir.New(parseMC(t, st.src), ir.Meta{})
		if err != nil {
			t.Fatal(err)
		}
		sameIR(t, st.step, got, want)
		prev = got
	}

	// The single edit must invalidate exactly helper and its callers.
	edited, err := ir.NewIncremental(relink(t, first.MC, `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); leaf(); }
void main() { mid(); }
`), ir.Meta{}, first)
	if err != nil {
		t.Fatal(err)
	}
	if edited.ByName["leaf"].Summary != first.ByName["leaf"].Summary {
		t.Error("leaf: summary changed by unrelated edit")
	}
	for _, name := range []string{"helper", "mid", "main"} {
		if edited.ByName[name].Summary == first.ByName[name].Summary {
			t.Errorf("%s: summary should change after helper edit", name)
		}
	}

	// Resolution change: add a definition for the previously external
	// callee `work`. Pointer-identical bodies must NOT reuse their old
	// fingerprints, because leaf's call now resolves.
	withWork := incrSrc + "void work() { }\n"
	got3, err := ir.NewIncremental(relink(t, first.MC, withWork), ir.Meta{}, first)
	if err != nil {
		t.Fatal(err)
	}
	if got3.MC.ByName["leaf"] != first.MC.ByName["leaf"] {
		t.Fatal("relink did not share leaf's definition")
	}
	want3, err := ir.New(parseMC(t, withWork), ir.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	sameIR(t, "resolution change", got3, want3)
	if got3.ByName["leaf"].Fingerprint == first.ByName["leaf"].Fingerprint {
		t.Error("leaf fingerprint must change when its callee gains a definition")
	}

	// nil prev falls back to a full lowering.
	got4, err := ir.NewIncremental(first.MC, ir.Meta{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameIR(t, "nil prev", got4, first)
}

// A same-size edit keeps every other function at its IDs, so the new
// CFG holds the previous one's node pointers for all of them and fresh
// nodes for the edited function alone; a size change before a function
// moves it, and it is laid out again.
func TestNewIncrementalSharesUneditedNodes(t *testing.T) {
	prev, err := ir.New(parseMC(t, incrSrc), ir.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		step, src string
		shared    []string
	}{
		{"same-size edit", strings.Replace(incrSrc, "helper() { leaf(); }", "helper() { mid(); }", 1),
			[]string{"leaf", "mid", "main"}},
		{"insertion", strings.Replace(incrSrc, "leaf(); helper();", "leaf(); leaf(); helper();", 1),
			[]string{"leaf"}},
	} {
		got, err := ir.NewIncremental(relink(t, prev.MC, c.src), ir.Meta{}, prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range got.Funcs {
			r := got.Graph.Funcs[f.ID]
			for id := r.Lo; id < r.Hi; id++ {
				shared := id < len(prev.Graph.Nodes) && got.Graph.Nodes[id] == prev.Graph.Nodes[id]
				if want := slices.Contains(c.shared, f.Name); shared != want {
					t.Errorf("%s: %s's node %d shared with the previous CFG: %v, want %v", c.step, f.Name, id, shared, want)
				}
			}
		}
	}
}

// synthFiles is the benchmark's seed corpus: 16 files of 8 functions,
// sorted by name as gocheck loads a directory.
func synthFiles(seed int64) []gosrc.File {
	var files []gosrc.File
	for _, f := range synth.GenerateGo(synth.GoConfig{Seed: seed, Files: 16, FuncsPerFile: 8,
		StmtsPerFn: 30, UnsafePerFile: 1, Racy: true}) {
		files = append(files, gosrc.File{Name: f.Name, Src: f.Src})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files
}

// edited returns files with the first old in file i replaced by new.
func edited(t testing.TB, files []gosrc.File, i int, old, new string) []gosrc.File {
	t.Helper()
	if !strings.Contains(files[i].Src, old) {
		t.Fatalf("%s has no %q", files[i].Name, old)
	}
	out := slices.Clone(files)
	out[i].Src = strings.Replace(out[i].Src, old, new, 1)
	return out
}

// TestNewIncrementalDifferentialOverSynth runs edit sequences over the
// benchmark corpus, seeds 1-3, through the translation memo, and
// compares every incremental lowering with a fresh New over the same
// translation. It also checks that no later lowering changed an earlier
// one, whose nodes the later ones share, and that the edits take the
// paths they are meant to: an edit that leaves every later function at
// its IDs shares at least 90% of the nodes, and one that moves them or
// changes name resolution shares fewer than 10%.
func TestNewIncrementalDifferentialOverSynth(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			files := synthFiles(seed)
			memo := gosrc.NewMemo()
			var prev, prevWant *ir.Program
			step := func(name string, next []gosrc.File, kept bool) {
				t.Helper()
				files = next
				trn, err := gosrc.TranslateFilesMemo(files, memo)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ir.NewIncremental(trn.Prog, trn.Meta, prev)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ir.New(trn.Prog, trn.Meta)
				if err != nil {
					t.Fatal(err)
				}
				sameIR(t, name, got, want)
				shared := 0
				if prev != nil {
					sameIR(t, name+": the previous lowering afterwards", prev, prevWant)
					for id, n := range got.Graph.Nodes {
						if id < len(prev.Graph.Nodes) && n == prev.Graph.Nodes[id] {
							shared++
						}
					}
				}
				if frac := float64(shared) / float64(len(got.Graph.Nodes)); kept && frac < 0.9 || !kept && frac >= 0.1 {
					t.Errorf("%s: %d of %d nodes shared with the previous lowering", name, shared, len(got.Graph.Nodes))
				}
				prev, prevWant = got, want
			}
			last := len(files) - 1
			step("first lowering", files, false)
			step("same-size edit", edited(t, files, last/2, "\twork(1)\n", "\twork(901)\n"), true)
			step("same-size edit in the first file", edited(t, files, 0, "\twork(1)\n", "\twork(902)\n"), true)
			step("insertion in the first file", edited(t, files, 0, "\twork(902)\n", "\twork(902)\n\twork(903)\n"), false)
			step("insertion in the last file", edited(t, files, last, "\twork(1)\n", "\twork(1)\n\twork(904)\n"), true)
			step("deletion in the first file", edited(t, files, 0, "\twork(903)\n", ""), false)
			step("a function added", edited(t, files, last/2, "\nfunc ", "\nfunc zzAdded() { work(905) }\n\nfunc "), false)
			step("same-size edit after it", edited(t, files, last, "\twork(904)\n", "\twork(906)\n"), true)
			step("a callee defined", edited(t, files, 0, "\nfunc ", "\nfunc work(n int) {}\n\nfunc "), false)
			step("insertion after it", edited(t, files, 1, "\twork(1)\n", "\twork(1)\n\twork(907)\n"), false)
			step("the function removed", edited(t, files, last/2, "\nfunc zzAdded() { work(905) }\n", ""), false)
		})
	}
}

// nodeScanRoots computes the default entries from the CFG alone: every
// defined function that no resolved call or spawn node names, or every
// function when that leaves none.
func nodeScanRoots(p *ir.Program) []string {
	called := map[string]bool{}
	for _, n := range p.Graph.Nodes {
		if (n.Kind != minic.NAction && n.Kind != minic.NSpawn) || n.Call == nil {
			continue
		}
		if def, ok := p.MC.Callee(n.Call); ok {
			called[def.Name] = true
		}
	}
	var roots, all []string
	for _, fd := range p.MC.Funcs {
		all = append(all, fd.Name)
		if !called[fd.Name] {
			roots = append(roots, fd.Name)
		}
	}
	if len(roots) == 0 {
		roots = all
	}
	sort.Strings(roots)
	return roots
}

// Roots, read off the call graph's edges, names the functions a scan of
// every CFG node finds uncalled, over the synth corpus of seeds 1-3 and
// this repository's internal/... tree.
func TestRootsMatchNodeScan(t *testing.T) {
	corpora := map[string][]gosrc.File{}
	for seed := int64(1); seed <= 3; seed++ {
		corpora[fmt.Sprintf("synth seed %d", seed)] = synthFiles(seed)
	}
	var internal []gosrc.File
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		internal = append(internal, gosrc.File{Name: path, Src: string(src)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	corpora["internal/..."] = internal
	for name, files := range corpora {
		p, err := gosrc.Lower(files)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := nodeScanRoots(p)
		if got := p.Roots(); !slices.Equal(got, want) {
			t.Errorf("%s: roots %v, want %v", name, got, want)
		}
		if len(want) == len(p.Funcs) {
			t.Errorf("%s: every function is a root; the corpus tests nothing", name)
		}
	}
}

// BenchmarkNewIncremental re-lowers the benchmark's seed-1 corpus after
// a one-file edit, over a fixed previous lowering: a same-size edit,
// which keeps every other function at its node IDs, and an inserted
// statement in the first file, which moves every later function, so
// that all of them are laid out again.
func BenchmarkNewIncremental(b *testing.B) {
	files := synthFiles(1)
	memo := gosrc.NewMemo()
	trn, err := gosrc.TranslateFilesMemo(files, memo)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := ir.NewIncremental(trn.Prog, trn.Meta, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		old, new string
	}{
		{"same-size", "\twork(1)\n", "\twork(901)\n"},
		{"shift", "\twork(1)\n", "\twork(1)\n\twork(901)\n"},
	} {
		next, err := gosrc.TranslateFilesMemo(edited(b, files, 0, c.old, c.new), memo)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ir.NewIncremental(next.Prog, next.Meta, prev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
