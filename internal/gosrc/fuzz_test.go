package gosrc

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzTranslate checks the Go front end is total: on any source, Lower
// returns an error or a program whose CFG is well formed, and never
// panics. The seeds are the Go test corpora of this package and of the
// analysis driver.
func FuzzTranslate(f *testing.F) {
	for _, dir := range []string{"testdata", "../analysis/testdata/src"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range ents {
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Lower([]File{{Name: "fuzz.go", Src: src}})
		if err != nil {
			return
		}
		if prog == nil || prog.Graph == nil {
			t.Fatal("Lower returned neither an error nor a program")
		}
		for _, n := range prog.Graph.Nodes {
			for _, s := range n.Succs {
				if s < 0 || s >= len(prog.Graph.Nodes) {
					t.Fatalf("dangling successor %d", s)
				}
			}
		}
	})
}
