// Incremental per-file translation. A Memo caches, per source file, the
// translated function definitions together with everything else the file
// contributes to a Translation (notes, suppression directives, shared
// globals), keyed by the file's content hash and the two pieces of
// cross-file context a file's translation depends on:
//
//   - the package-level shared-variable set (access statements are only
//     emitted for names in it), folded in as a digest of the union over
//     all files; and
//   - the synthesized-closure counter offset at the file's position
//     (closure names are numbered sequentially across the whole package,
//     so a file's translation is only reusable if every earlier file
//     synthesizes the same number of closures).
//
// A resident analysis engine holds one Memo per program: a request that
// changes k of n files re-parses and re-translates exactly those k files
// and merges the cached units for the rest. The merged Translation is
// semantically identical to TranslateFiles over the same file set; the
// one case the unit-wise merge cannot reproduce — a duplicate qualified
// name across files, where the sequential path skips the later body
// without translating it — is detected and falls back to the one-shot
// path.
package gosrc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"sync"

	"rasc/internal/minic"
)

// Memo caches per-file translation units for one evolving file set. The
// zero value is not usable; call NewMemo. A Memo is safe for concurrent
// use, but callers translating the same program concurrently serialize
// on its lock (translation of a file set is not parallel anyway).
type Memo struct {
	mu    sync.Mutex
	files map[string]*memoFile
}

// NewMemo returns an empty translation memo.
func NewMemo() *Memo { return &Memo{files: map[string]*memoFile{}} }

// memoFile is the cached state for one file name.
type memoFile struct {
	// hash is the SHA-256 of the source content the parse belongs to.
	hash string
	// globals lists the package-level shared-variable names this file
	// declares (its contribution to the union).
	globals []string
	// key is the full context the unit was translated under; unit is nil
	// until the file has been translated at least once.
	key  unitKey
	unit *fileUnit
}

type unitKey struct {
	hash          string
	globalsDigest string
	gocountStart  int
}

// fileUnit is one file's translation output, mergeable into a package
// Translation.
type fileUnit struct {
	// funcs lists the translated definitions in append order — declared
	// functions interleaved with the closures they synthesize, exactly
	// the order TranslateFiles would append them in.
	funcs []unitFunc
	// notes are the file's translation remarks (goto, within-file dups).
	notes []Note
	// ignores and fileIgnores are the file's suppression directives;
	// hasFileIgnores distinguishes "directive with empty checker list"
	// (suppress everything) from "no directive".
	ignores        map[int][]string
	fileIgnores    []string
	hasIgnores     bool
	hasFileIgnores bool
	// closures counts the synthesized closure functions, advancing the
	// package-wide counter for the files after this one.
	closures int
}

type unitFunc struct {
	def *minic.FuncDef
	// bare is the method's bare name for the alias pass, "" for plain
	// functions and synthesized closures.
	bare string
}

// contentHash fingerprints one file's source.
func contentHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// TranslateFilesMemo is TranslateFiles with per-file caching: files
// whose content and cross-file context are unchanged since the memo
// last saw them reuse their translated unit; everything else is
// re-parsed and re-translated. A nil memo degrades to TranslateFiles.
func TranslateFilesMemo(files []File, m *Memo) (*Translation, error) {
	if m == nil {
		return TranslateFiles(files)
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	// Drop memo entries for files no longer in the set, so a resident
	// program's memo tracks its file set instead of growing forever.
	inSet := make(map[string]bool, len(files))
	for _, f := range files {
		inSet[f.Name] = true
	}
	for name := range m.files {
		if !inSet[name] {
			delete(m.files, name)
		}
	}

	// Phase 1: bring per-file globals up to date. Only changed files are
	// parsed here, and the parse is thrown away — the translation phase
	// re-parses the (few) files it actually translates, so units carry no
	// token.FileSet state between requests.
	for _, f := range files {
		h := contentHash(f.Src)
		mf := m.files[f.Name]
		if mf != nil && mf.hash == h {
			continue
		}
		file, err := parseOne(f)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, 4)
		for name := range collectGlobals(token.NewFileSet(), []*ast.File{file}) {
			names = append(names, name)
		}
		sort.Strings(names)
		m.files[f.Name] = &memoFile{hash: h, globals: names}
	}
	union := map[string]bool{}
	for _, f := range files {
		for _, name := range m.files[f.Name].globals {
			union[name] = true
		}
	}
	var shared []string // nil when no globals, matching TranslateFiles
	for name := range union {
		shared = append(shared, name)
	}
	sort.Strings(shared)
	gh := sha256.New()
	for _, name := range shared {
		fmt.Fprintf(gh, "%s\n", name)
	}
	globalsDigest := hex.EncodeToString(gh.Sum(nil))

	// Phase 2: translate stale units in file order, threading the
	// package-wide closure counter through.
	gocount := 0
	units := make([]*fileUnit, len(files))
	for i, f := range files {
		mf := m.files[f.Name]
		key := unitKey{hash: mf.hash, globalsDigest: globalsDigest, gocountStart: gocount}
		if mf.unit == nil || mf.key != key {
			u, err := translateUnit(f, union, gocount)
			if err != nil {
				return nil, err
			}
			mf.unit, mf.key = u, key
		}
		units[i] = mf.unit
		gocount += mf.unit.closures
	}

	// Phase 3: merge units in file order.
	out := newTranslation()
	out.Shared = shared
	methodsByBare := map[string][]*minic.FuncDef{}
	for i, f := range files {
		u := units[i]
		for _, uf := range u.funcs {
			if _, dup := out.Prog.ByName[uf.def.Name]; dup {
				// A cross-file duplicate: the sequential path would have
				// skipped this body (and its closures) entirely, which a
				// unit translated in isolation cannot know. Rare enough
				// that correctness beats reuse: take the one-shot path.
				return TranslateFiles(files)
			}
			out.Prog.Funcs = append(out.Prog.Funcs, uf.def)
			out.Prog.ByName[uf.def.Name] = uf.def
			if uf.bare != "" {
				methodsByBare[uf.bare] = append(methodsByBare[uf.bare], uf.def)
			}
		}
		out.Notes = append(out.Notes, u.notes...)
		if u.hasIgnores {
			out.Ignores[f.Name] = u.ignores
		}
		if u.hasFileIgnores {
			out.FileIgnores[f.Name] = u.fileIgnores
		}
	}
	if len(out.Prog.Funcs) == 0 {
		return nil, fmt.Errorf("gosrc: no function bodies found")
	}
	registerAliases(out, methodsByBare)
	sortNotes(out.Notes)
	return out, nil
}

// parseOne parses a single file with the options TranslateFiles uses.
func parseOne(f File) (*ast.File, error) {
	file, err := parser.ParseFile(token.NewFileSet(), f.Name, f.Src,
		parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("gosrc: %w", err)
	}
	return file, nil
}

// translateUnit translates one file in isolation: a fresh single-file
// Translation whose closure counter starts at gocountStart, against the
// package-wide shared-variable set. Positions are file-local, so a
// per-file FileSet produces the same line numbers as the package-wide
// one.
func translateUnit(f File, globals map[string]bool, gocountStart int) (*fileUnit, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, f.Name, f.Src, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("gosrc: %w", err)
	}
	scratch := newTranslation()
	scratch.gocount = gocountStart
	tr := &translator{fset: fset, file: f.Name, out: scratch, globals: globals}
	collectIgnores(fset, f.Name, file, scratch)
	// bareOf records which definitions are methods; synthesized closures
	// appended by funcDecl's body translation carry no bare name.
	bareOf := map[*minic.FuncDef]string{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		def, isMethod := tr.funcDecl(fd)
		if def == nil {
			continue
		}
		if isMethod {
			bareOf[def] = fd.Name.Name
		}
	}
	u := &fileUnit{
		notes:    scratch.Notes,
		closures: scratch.gocount - gocountStart,
	}
	for _, def := range scratch.Prog.Funcs {
		u.funcs = append(u.funcs, unitFunc{def: def, bare: bareOf[def]})
	}
	if ign, ok := scratch.Ignores[f.Name]; ok {
		u.ignores, u.hasIgnores = ign, true
	}
	if fi, ok := scratch.FileIgnores[f.Name]; ok {
		u.fileIgnores, u.hasFileIgnores = fi, true
	}
	return u, nil
}
