package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"rasc/internal/analysis"
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/server"
	"rasc/internal/synth"
)

// corpus is one seed's generated Go package plus the edit sites the edit
// streams rewrite. Everything in it is a pure function of the seed and
// the file count.
type corpus struct {
	files []gosrc.File // sorted by name, as gocheck loads a directory
	lines [][]string   // files split into lines, for in-place edits
	sites []site
}

// site is one editable line: a `\twork(N)` statement in a function
// reachable from its file's root. Rewriting N keeps every line number,
// so the program's findings never change, but the enclosing function's
// fingerprint does, so each edit invalidates real work.
type site struct {
	file int // index into corpus.files
	line int // 0-based line index
}

var siteLine = regexp.MustCompile(`^\twork\(\d+\)$`)

// newCorpus generates the seed's package: nfiles files of 8 functions
// of 30 statements, one injected bug per file, racy goroutine writes.
func newCorpus(seed int64, nfiles int) (*corpus, error) {
	gen := synth.GenerateGo(synth.GoConfig{
		Seed:          seed,
		Files:         nfiles,
		FuncsPerFile:  8,
		StmtsPerFn:    30,
		UnsafePerFile: 1,
		Racy:          true,
	})
	c := &corpus{}
	for _, f := range gen {
		c.files = append(c.files, gosrc.File{Name: f.Name, Src: f.Src})
	}
	sort.Slice(c.files, func(i, j int) bool { return c.files[i].Name < c.files[j].Name })
	for _, f := range c.files {
		c.lines = append(c.lines, strings.Split(f.Src, "\n"))
	}
	prog, err := gosrc.Lower(c.files)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	c.sites = editSites(c.files, c.lines, prog)
	if len(c.sites) == 0 {
		return nil, fmt.Errorf("corpus: seed %d has no `\\twork(N)` line in a function reachable from its file's root", seed)
	}
	return c, nil
}

// editSites finds the work(N) lines whose enclosing function is
// reachable from a root defined in the same file. The enclosing function
// of a line is the last function defined at or above it.
func editSites(files []gosrc.File, lines [][]string, prog *ir.Program) []site {
	reachable := map[string]bool{}
	for _, root := range prog.Roots() {
		file := prog.ByName[root].File
		for _, id := range prog.Reachable(root) {
			if f := prog.Funcs[id]; f.File == file {
				reachable[f.Name] = true
			}
		}
	}
	var out []site
	for fi, f := range files {
		var defs []*ir.Function
		for _, fn := range prog.Funcs {
			if fn.File == f.Name {
				defs = append(defs, fn)
			}
		}
		sort.Slice(defs, func(i, j int) bool { return defs[i].Line < defs[j].Line })
		for li, text := range lines[fi] {
			if !siteLine.MatchString(text) {
				continue
			}
			k := sort.Search(len(defs), func(i int) bool { return defs[i].Line > li+1 }) - 1
			if k >= 0 && reachable[defs[k].Name] {
				out = append(out, site{file: fi, line: li})
			}
		}
	}
	return out
}

// edit rewrites one site to `\twork(lit)`.
type edit struct {
	site int // index into corpus.sites
	lit  int
}

// stream is a client's deterministic, unbounded edit sequence.
type stream interface{ next() edit }

// novelStream picks sites in a seeded order and gives every edit a
// literal no earlier edit of any client used, so the edited program was
// never seen by any cache.
type novelStream struct {
	rng   *rand.Rand
	n     int
	base  int
	count int
}

func (c *corpus) novel(seed int64, client int) *novelStream {
	return &novelStream{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		n:    len(c.sites),
		base: 1_000_000 * (client + 1),
	}
}

func (s *novelStream) next() edit {
	s.count++
	return edit{site: s.rng.Intn(s.n), lit: s.base + s.count}
}

// flipStream toggles one seeded site between a fixed edited literal and
// its original text, like an editor's undo/redo.
type flipStream struct {
	site  int
	lit   int
	count int
}

func (c *corpus) flip(seed int64, client int) *flipStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	return &flipStream{site: rng.Intn(len(c.sites)), lit: 999_000 + client}
}

// next returns the edited variant on odd requests and the original
// (lit < 0) on even ones.
func (s *flipStream) next() edit {
	s.count++
	if s.count%2 == 0 {
		return edit{site: s.site, lit: -1}
	}
	return edit{site: s.site, lit: s.lit}
}

// state is one client's private, evolving copy of the corpus.
type state struct {
	c     *corpus
	lines [][]string
}

func (c *corpus) state() *state {
	st := &state{c: c, lines: make([][]string, len(c.lines))}
	for i, ls := range c.lines {
		st.lines[i] = append([]string(nil), ls...)
	}
	return st
}

// apply performs e and returns the edited file's new content. A
// negative literal restores the site's original line.
func (st *state) apply(e edit) gosrc.File {
	s := st.c.sites[e.site]
	if e.lit < 0 {
		st.lines[s.file][s.line] = st.c.lines[s.file][s.line]
	} else {
		st.lines[s.file][s.line] = fmt.Sprintf("\twork(%d)", e.lit)
	}
	return gosrc.File{Name: st.c.files[s.file].Name, Src: strings.Join(st.lines[s.file], "\n")}
}

// files returns the state's current file set, sorted by name.
func (st *state) files() []gosrc.File {
	out := make([]gosrc.File, len(st.lines))
	for i, ls := range st.lines {
		out[i] = gosrc.File{Name: st.c.files[i].Name, Src: strings.Join(ls, "\n")}
	}
	return out
}

// reference is the expected output every operation is compared with,
// computed by an independent path: one in-process Analyze at
// parallelism 1, without any cache, over the unedited corpus. Edits keep
// every line, so the reference holds for every edited version too.
type reference struct {
	SARIF []byte // gocheck -format sarif output
	JSON  []byte // Report.JSON, the report a server response carries
	// Envelope is the /v1/check response body around the reference
	// report, split where the request's trace ID goes.
	Envelope [2][]byte
}

// referenceReport runs the reference analysis.
func referenceReport(files []gosrc.File) (*analysis.Report, error) {
	pkg, err := analysis.LoadFiles(files)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rep, err := analysis.Analyze(pkg, analysis.Config{Parallel: 1})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return rep, nil
}

// newReference returns the corpus's reference outputs, from rc when an
// earlier run of the same code computed them.
func newReference(rc *refCache, files []gosrc.File) (*reference, error) {
	var input []string
	for _, f := range files {
		input = append(input, f.Name, f.Src)
	}
	ref := &reference{}
	err := rc.load("analysis", input, ref, func() error {
		rep, err := referenceReport(files)
		if err != nil {
			return err
		}
		var s, j, e bytes.Buffer
		if err := rep.SARIF(&s); err != nil {
			return err
		}
		if err := rep.JSON(&j); err != nil {
			return err
		}
		enc := json.NewEncoder(&e)
		enc.SetIndent("", "  ")
		if err := enc.Encode(server.CheckResponse{Report: rep, TraceID: "\x00"}); err != nil {
			return err
		}
		pre, suf, _ := bytes.Cut(e.Bytes(), []byte(`\u0000`))
		ref.SARIF, ref.JSON, ref.Envelope = s.Bytes(), j.Bytes(), [2][]byte{pre, suf}
		return nil
	})
	return ref, err
}

// sameReport reports whether rep renders exactly like the reference.
// Cache statistics are telemetry, stripped as gocheck strips them.
func (ref *reference) sameReport(rep *analysis.Report) bool {
	cp := *rep
	cp.Cache = nil
	var b bytes.Buffer
	if err := cp.JSON(&b); err != nil {
		return false
	}
	return bytes.Equal(b.Bytes(), ref.JSON)
}
