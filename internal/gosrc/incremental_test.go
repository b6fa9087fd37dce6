package gosrc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rasc/internal/minic"
	"rasc/internal/synth"
)

// atProcs runs f as subtests under GOMAXPROCS 1 and 8, so the worker
// pool runs both inline and on several goroutines.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// diffOracle translates files through m (nil: TranslateFiles) and fails
// the test unless the result agrees with the sequential oracle, errors
// included. It returns the translation, nil on an error.
func diffOracle(t *testing.T, step string, files []File, m *Memo) *Translation {
	t.Helper()
	want, werr := translateSequential(files)
	got, gerr := TranslateFilesMemo(files, m)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, oracle error %v", step, gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	diffTranslations(t, step, got, want)
	return got
}

// funcDefs indexes a translation's definitions of the named file by
// name.
func funcDefs(tr *Translation, file string) map[string]*minic.FuncDef {
	out := map[string]*minic.FuncDef{}
	for _, def := range tr.Prog.Funcs {
		if def.File == file {
			out[def.Name] = def
		}
	}
	return out
}

// kept fails the test unless every definition of the named files in
// before is, as the same object, in after: their units were reused.
func kept(t *testing.T, step string, before, after *Translation, files ...string) {
	t.Helper()
	for _, name := range files {
		was, now := funcDefs(before, name), funcDefs(after, name)
		if len(now) != len(was) {
			t.Fatalf("%s: %s has %d definitions, had %d", step, name, len(now), len(was))
		}
		for fn, def := range was {
			if now[fn] != def {
				t.Errorf("%s: %s's %s was translated again", step, name, fn)
			}
		}
	}
}

// diffTranslations fails the test if two translations differ anywhere a
// consumer can observe.
func diffTranslations(t *testing.T, step string, got, want *Translation) {
	t.Helper()
	if len(got.Prog.Funcs) != len(want.Prog.Funcs) {
		t.Errorf("%s: Prog.Funcs differ (got %d, want %d funcs)", step, len(got.Prog.Funcs), len(want.Prog.Funcs))
	}
	// One function at a time: DeepEqual's cycle bookkeeping over a whole
	// program costs more than the translations it checks.
	gotID, wantID := map[*minic.FuncDef]int{}, map[*minic.FuncDef]int{}
	for i := range min(len(got.Prog.Funcs), len(want.Prog.Funcs)) {
		if !reflect.DeepEqual(got.Prog.Funcs[i], want.Prog.Funcs[i]) {
			t.Errorf("%s: first divergence at func %d: got %q", step, i, got.Prog.Funcs[i].Name)
			break
		}
		gotID[got.Prog.Funcs[i]], wantID[want.Prog.Funcs[i]] = i, i
	}
	// ByName: the same names, each resolving to the same position.
	if len(got.Prog.ByName) != len(want.Prog.ByName) {
		t.Errorf("%s: Prog.ByName differs: got %d, want %d entries", step, len(got.Prog.ByName), len(want.Prog.ByName))
	}
	for name, def := range want.Prog.ByName {
		if g, ok := got.Prog.ByName[name]; !ok || gotID[g] != wantID[def] {
			t.Errorf("%s: Prog.ByName[%q] differs", step, name)
			break
		}
	}
	if !reflect.DeepEqual(got.Notes, want.Notes) {
		t.Errorf("%s: Notes differ:\n got %+v\nwant %+v", step, got.Notes, want.Notes)
	}
	if !reflect.DeepEqual(got.Ignores, want.Ignores) {
		t.Errorf("%s: Ignores differ:\n got %+v\nwant %+v", step, got.Ignores, want.Ignores)
	}
	if !reflect.DeepEqual(got.FileIgnores, want.FileIgnores) {
		t.Errorf("%s: FileIgnores differ:\n got %+v\nwant %+v", step, got.FileIgnores, want.FileIgnores)
	}
	if !reflect.DeepEqual(got.Shared, want.Shared) {
		t.Errorf("%s: Shared differs: got %v, want %v", step, got.Shared, want.Shared)
	}
}

// TestTranslateFilesMemoDifferential drives one Memo through an edit
// sequence exercising every cross-file coupling (method aliases,
// closure numbering, shared globals, suppression directives, duplicate
// definitions, file add/remove) and checks each state against the
// sequential oracle.
func TestTranslateFilesMemoDifferential(t *testing.T) { atProcs(t, memoDifferential) }

func memoDifferential(t *testing.T) {
	a := `package p

var shared int

func main() {
	helper()
	go func() { shared = 1 }()
	w.Close()
}
`
	b := `package p

type W struct{}

func (w *W) Close() {
	shared = 2
}

func helper() {
	go func() { drain() }()
	go func() { drain() }()
}
`
	c := `package p

//rasc:ignore-file chanclose

func drain() {
	shared = 3 //rasc:ignore
}
`
	files := []File{
		{Name: "a.go", Src: a},
		{Name: "b.go", Src: b},
		{Name: "c.go", Src: c},
	}
	m := NewMemo()
	check := func(step string, fs []File) *Translation {
		t.Helper()
		diffOracle(t, step+" (TranslateFiles)", fs, nil)
		return diffOracle(t, step, fs, m)
	}

	check("cold", files)
	check("fully warm", files)

	// Single-body edit: only a.go should re-translate; closures in b.go
	// keep their numbering because a.go still synthesizes one closure.
	files[0].Src = `package p

var shared int

func main() {
	helper()
	go func() { shared = 4 }()
	w.Close()
	w.Close()
}
`
	check("edit a.go body", files)

	// Closure-count edit: a.go now synthesizes two closures, shifting
	// the counter offset for b.go — b.go must re-translate even though
	// its content is unchanged.
	files[0].Src = `package p

var shared int

func main() {
	helper()
	go func() { shared = 5 }()
	go func() { shared = 6 }()
	w.Close()
}
`
	check("closure count shift", files)

	// Globals edit: removing the only declaration of `shared` changes
	// the package-wide shared set, so every unit must re-translate
	// (accesses to `shared` stop being emitted).
	files[0].Src = `package p

func main() {
	helper()
	w.Close()
}
`
	check("global removed", files)
	files[0].Src = `package p

var shared int

func main() {
	helper()
	w.Close()
}
`
	check("global restored", files)

	// File add: a second receiver for Close makes the bare-name alias
	// ambiguous, which changes the alias pass and adds a Note.
	files = append(files, File{Name: "d.go", Src: `package p

type V struct{}

func (v *V) Close() {
	drain()
}
`})
	check("file added (ambiguous method)", files)

	// File remove: back to a unique Close; the memo drops d.go.
	files = files[:3]
	check("file removed", files)

	// Within-file duplicate: handled inside the unit, Note preserved.
	files[2].Src = `package p

//rasc:ignore-file chanclose

func drain() {
	shared = 3 //rasc:ignore
}

func drain() {
	shared = 7
}
`
	check("within-file duplicate", files)

	// Cross-file duplicate: c.go now also defines b.go's helper. Only
	// c.go re-translates, skipping helper with a note; every unit of
	// a.go and b.go is reused as it is, definitions and all.
	before := check("before cross-file duplicate", files)
	files[2].Src = `package p

func helper() {
	drain()
}

func drain() {
}
`
	after := check("cross-file duplicate", files)
	kept(t, "cross-file duplicate", before, after, "a.go", "b.go")

	// A one-file edit with the duplicate in place: b.go's Close body
	// changes, and a.go's and c.go's units are reused as they are.
	files[1].Src = strings.Replace(b, "shared = 2", "shared = 8", 1)
	kept(t, "edit beside a duplicate", after, check("edit beside a duplicate", files), "a.go", "c.go")
	files[1].Src = b

	// Recover from the duplicate and make sure the memo is still
	// coherent afterwards.
	files[2].Src = c
	check("recovered from duplicate", files)

	// An earlier file takes a name over: a.go now defines drain too, so
	// c.go, unchanged, must skip its own; then a.go gives it back.
	restored := files[0].Src
	files[0].Src += "\nfunc drain() {}\n"
	check("earlier file defines drain", files)
	files[0].Src = restored
	check("earlier file drops drain", files)

	// Error propagation: a parse error surfaces identically.
	files[1].Src = "package p\nfunc broken( {"
	check("parse error", files)
	files[1].Src = b
	check("recovered from parse error", files)

	// Empty program error.
	empty := []File{{Name: "e.go", Src: "package p\n\ntype T struct{}\n"}}
	check("no bodies error", empty)
}

// TestTranslateFilesMemoManyOrders shuffles file order to confirm the
// memo respects the order of the request, not insertion history.
func TestTranslateFilesMemoManyOrders(t *testing.T) { atProcs(t, memoManyOrders) }

func memoManyOrders(t *testing.T) {
	mk := func(i int) File {
		return File{
			Name: fmt.Sprintf("f%d.go", i),
			Src: fmt.Sprintf(`package p

func fn%d() {
	go func() { work%d() }()
}
`, i, i),
		}
	}
	files := []File{mk(0), mk(1), mk(2), mk(3)}
	m := NewMemo()
	for step := 0; step < 4; step++ {
		// Rotate the order each step; closure numbering follows file
		// order, so rotated requests re-key every unit's offset.
		rot := append(append([]File{}, files[step:]...), files[:step]...)
		diffOracle(t, fmt.Sprintf("rotation %d (TranslateFiles)", step), rot, nil)
		diffOracle(t, fmt.Sprintf("rotation %d", step), rot, m)
	}
}

// TestTranslateFilesMemoNil degrades to the one-shot path.
func TestTranslateFilesMemoNil(t *testing.T) {
	files := []File{{Name: "a.go", Src: "package p\n\nfunc main() { f() }\n"}}
	got, err := TranslateFilesMemo(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := TranslateFiles(files)
	diffTranslations(t, "nil memo", got, want)
}

// diffCorpus checks a corpus against the oracle: translated cold, and
// through a filled memo after two edits. The first edit appends a
// closure to the first file, which moves every later file's closure
// offset, so each cached unit with closures is translated again; the
// second edits the middle file alone.
func diffCorpus(t *testing.T, files []File) {
	diffOracle(t, "TranslateFiles", files, nil)
	m := NewMemo()
	if _, err := TranslateFilesMemo(files, m); err != nil {
		t.Fatal(err)
	}
	files = append([]File{}, files...)
	files[0].Src += "\nfunc zzEdit() { go func() { zzWork() }() }\n"
	diffOracle(t, "closure added to the first file", files, m)
	mid := len(files) / 2
	files[mid].Src += "\nfunc zzMid() { zzWork() }\n"
	diffOracle(t, "middle file edited", files, m)
}

// TestTranslateDifferentialOverInternal checks this repository's
// internal/... tree — many packages in one namespace, so cross-file
// duplicate definitions, and goroutine closures in several files —
// against the oracle.
func TestTranslateDifferentialOverInternal(t *testing.T) {
	var files []File
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		files = append(files, File{Name: path, Src: string(src)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := translateSequential(files)
	if err != nil {
		t.Fatal(err)
	}
	dups, closures := 0, map[string]bool{}
	for _, n := range want.Notes {
		if strings.HasPrefix(n.Msg, "duplicate definition") {
			dups++
		}
	}
	for _, def := range want.Prog.Funcs {
		if strings.Contains(def.Name, "$") {
			closures[def.File] = true
		}
	}
	if dups == 0 || len(closures) < 2 {
		t.Fatalf("internal/... has %d duplicate notes and %d files with closures; the test needs both couplings", dups, len(closures))
	}
	atProcs(t, func(t *testing.T) { diffCorpus(t, files) })
}

// TestTranslateDifferentialOverSynth checks the benchmark's synthetic
// corpus shape, seeds 1-3, against the oracle.
func TestTranslateDifferentialOverSynth(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var files []File
		for _, f := range synth.GenerateGo(synth.GoConfig{Seed: seed, Files: 16, FuncsPerFile: 8,
			StmtsPerFn: 30, UnsafePerFile: 1, Racy: true}) {
			files = append(files, File{Name: f.Name, Src: f.Src})
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			atProcs(t, func(t *testing.T) { diffCorpus(t, files) })
		})
	}
}

// TestTranslateParseErrorNamesFirstFile: with several unparsable files,
// the error names the first one in file order, as the sequential pass
// did, however the parallel parses finish.
func TestTranslateParseErrorNamesFirstFile(t *testing.T) {
	var files []File
	for i := 0; i < 12; i++ {
		src := fmt.Sprintf("package p\n\nfunc f%d() { g() }\n", i)
		if i >= 3 && i%3 == 0 {
			src = fmt.Sprintf("package p\nfunc broken%d( {", i)
		}
		files = append(files, File{Name: fmt.Sprintf("f%02d.go", i), Src: src})
	}
	atProcs(t, func(t *testing.T) {
		for _, m := range []*Memo{nil, NewMemo()} {
			_, err := TranslateFilesMemo(files, m)
			if err == nil || !strings.HasPrefix(err.Error(), "gosrc: f03.go:2:") {
				t.Fatalf("error %v, want one naming f03.go", err)
			}
			diffOracle(t, "parse errors", files, m)
		}
	})
}
