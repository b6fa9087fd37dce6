package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// refCache keeps the outputs every run is checked against — the
// reference analysis of a corpus, MOPS's verdicts on the Table 1
// programs — under root/.bench_build/refs, so that each is computed once
// per version of the code and input rather than once per run. Keys
// digest the Go version, every Go source and go.mod under the
// repository root, and the input, so a changed checker never meets a
// stale reference.
type refCache struct {
	dir  string
	tree []byte
}

func openRefCache(root string) (*refCache, error) {
	h := sha256.New()
	fmt.Fprintln(h, runtime.Version())
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == ".bench_build" || d.Name() == ".git") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("digesting the sources: %w", err)
	}
	return &refCache{dir: filepath.Join(root, ".bench_build", "refs"), tree: h.Sum(nil)}, nil
}

// load fills v, a JSON-encodable value, with the entry for kind and
// input. On a miss it runs compute, which fills v, and stores v.
func (c *refCache) load(kind string, input []string, v any, compute func() error) error {
	h := sha256.New()
	h.Write(c.tree)
	fmt.Fprintln(h, kind)
	for _, s := range input {
		fmt.Fprintf(h, "%d\n%s", len(s), s)
	}
	path := filepath.Join(c.dir, fmt.Sprintf("%s-%x.json", kind, h.Sum(nil)))
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, v) == nil {
		return nil
	}
	if err := compute(); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, kind+"-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}
