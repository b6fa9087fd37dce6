package gosrc

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"rasc/internal/ir"
	"rasc/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// benchCorpus returns the benchmark's synthetic package for seed: 16
// files of 8 functions of 30 statements, one injected bug per file and
// racy goroutine writes, sorted by name as gocheck loads a directory.
func benchCorpus(seed int64) []File {
	var files []File
	for _, f := range synth.GenerateGo(synth.GoConfig{Seed: seed, Files: 16, FuncsPerFile: 8,
		StmtsPerFn: 30, UnsafePerFile: 1, Racy: true}) {
		files = append(files, File{Name: f.Name, Src: f.Src})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files
}

// goldenText renders what a translation hands its consumers: every
// function's ir fingerprint in program order — a hash of its name,
// definition site, parameters and full statement tree with per-statement
// lines and resolved callees — then the notes, the shared variables and
// the suppression directives.
func goldenText(t *testing.T, tr *Translation) string {
	t.Helper()
	p, err := ir.New(tr.Prog, tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "func %s %s\n", f.Name, f.Fingerprint)
	}
	for _, n := range tr.Notes {
		fmt.Fprintf(&b, "note %s:%d %s\n", n.File, n.Line, n.Msg)
	}
	fmt.Fprintf(&b, "shared %s\n", strings.Join(tr.Shared, " "))
	for _, file := range sortedKeys(tr.FileIgnores) {
		fmt.Fprintf(&b, "ignore-file %s %q\n", file, tr.FileIgnores[file])
	}
	for _, file := range sortedKeys(tr.Ignores) {
		lines := make([]int, 0, len(tr.Ignores[file]))
		for line := range tr.Ignores[file] {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			fmt.Fprintf(&b, "ignore %s:%d %q\n", file, line, tr.Ignores[file][line])
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestTranslationGolden pins the translator's output byte for byte,
// independently of the translator: per input, every function's ir
// fingerprint plus the notes, shared variables and ignore maps. The
// inputs are the benchmark's corpus shape at seeds 1-3 and
// testdata/stmts.go.src, which reaches every statement form with shared
// reads in every position. A change to statement translation that is
// meant to keep its output must leave this test passing; one that means
// to change it rewrites the golden file with -update and says why.
func TestTranslationGolden(t *testing.T) {
	src, err := os.ReadFile("testdata/stmts.go.src")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name  string
		files []File
	}{{"stmts", []File{{Name: "stmts.go", Src: string(src)}}}}
	for seed := int64(1); seed <= 3; seed++ {
		inputs = append(inputs, struct {
			name  string
			files []File
		}{fmt.Sprintf("synth-seed%d", seed), benchCorpus(seed)})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			tr, err := TranslateFiles(in.files)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenText(t, tr)
			path := "testdata/" + in.name + ".golden"
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s differs:\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff returns the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return ""
}

// BenchmarkTranslateFiles parses and translates the benchmark's seed-1
// corpus, every file as a fresh unit: the front-end work of a one-shot
// gocheck run before lowering.
func BenchmarkTranslateFiles(b *testing.B) {
	files := benchCorpus(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TranslateFiles(files); err != nil {
			b.Fatal(err)
		}
	}
}
