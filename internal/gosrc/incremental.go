// Per-file translation units. Every translation treats each file as a
// unit: parsed with its own token.FileSet, translated on a GOMAXPROCS
// worker pool, and merged with the others in file order. A unit's
// translation depends on its file's content and on two pieces of
// cross-file context, both settled before any body is translated:
//
//   - the package-level shared-variable set (access statements are only
//     emitted for names in it), the union of every file's declarations;
//     and
//   - the qualified names an earlier file defines: first definition
//     wins, so the unit skips those bodies and notes each one, as a
//     sequential pass over the files would.
//
// Synthesized closures ("f$go1", "f$once2") are numbered package-wide in
// file order. A unit numbers its own from 1 and records each closure's
// definition and spawning call; the merge renumbers a freshly translated
// unit in place to its package-wide offset.
//
// A Memo keeps the units across calls for one evolving file set, keyed
// by content hash and cross-file context. A resident analysis engine
// holds one Memo per program: a request that changes k of n files
// re-parses and re-translates those k files, plus any unchanged file
// whose context moved, and merges the cached units for the rest. A
// cached unit whose closure offset moved is translated again rather
// than renamed, so no definition an earlier Translation holds is ever
// mutated.
package gosrc

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rasc/internal/ir"
	"rasc/internal/minic"
)

// Memo caches per-file translation units for one evolving file set. The
// zero value is not usable; call NewMemo. A Memo is safe for concurrent
// use; callers translating through the same Memo take turns, and each
// call translates its stale units in parallel.
type Memo struct {
	mu    sync.Mutex
	files map[string]*memoFile
}

// NewMemo returns an empty translation memo.
func NewMemo() *Memo { return &Memo{files: map[string]*memoFile{}} }

// memoFile is one file's cross-file facts and its latest unit.
type memoFile struct {
	// hash is the SHA-256 of the source content the facts belong to.
	hash [sha256.Size]byte
	// globals lists the package-level shared-variable names the file
	// declares (its contribution to the union); decls the qualified
	// names of its function bodies, in order.
	globals, decls []string
	// key is the context unit was translated under; unit is nil until
	// the file has been translated.
	key  unitKey
	unit *fileUnit
}

// unitKey is a unit's cross-file context: the package's shared
// variables and the names the file defines that an earlier file owns,
// each joined by newlines.
type unitKey struct {
	globals, skip string
}

// fileUnit is one file's translation output, mergeable into a package
// Translation.
type fileUnit struct {
	// funcs lists the translated definitions in append order — declared
	// functions preceded by the closures their bodies synthesize.
	funcs []unitFunc
	// notes are the file's translation remarks (goto, duplicates).
	notes []Note
	// ignores are the file's suppression directives.
	ignores []directive
	// closures lists the synthesized closures in numbering order;
	// offset is the package-wide number of closures before the file,
	// which their names carry.
	closures []closureRef
	offset   int
}

type unitFunc struct {
	def *minic.FuncDef
	// bare is the method's bare name for the alias pass, "" for plain
	// functions and synthesized closures.
	bare string
}

// closureRef is a synthesized closure: its definition, the one call
// that spawns or runs it, and its name without the number.
type closureRef struct {
	def  *minic.FuncDef
	call *minic.CallExpr
	base string
}

// renumber renames a unit's closures for a package-wide offset. Only a
// unit translated in the same call may be renumbered: its definitions
// are not yet shared.
func (u *fileUnit) renumber(offset int) {
	u.offset = offset
	if offset == 0 {
		return
	}
	for k, c := range u.closures {
		name := c.base + strconv.Itoa(offset+k+1)
		c.def.Name, c.call.Name = name, name
	}
}

// source is one parsed file, held only until its unit is translated.
type source struct {
	fset *token.FileSet
	file *ast.File
}

// parse parses one file with its own FileSet. Positions are file-local,
// so the lines are those a package-wide FileSet would give. A syntax
// error names the file and the line and column it sits at, as every line
// a translation records does: a //line directive moves neither.
func parse(f File) (*source, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, f.Name, f.Src, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		var list scanner.ErrorList
		if errors.As(err, &list) {
			physicalPositions(fset, list)
		}
		return nil, fmt.Errorf("gosrc: %w", err)
	}
	return &source{fset: fset, file: file}, nil
}

// physicalPositions re-positions every error of list from its byte
// offset in the one file fset holds, ignoring line directives, and
// sorts the list again in that order.
func physicalPositions(fset *token.FileSet, list scanner.ErrorList) {
	var tf *token.File
	fset.Iterate(func(f *token.File) bool { tf = f; return false })
	for _, e := range list {
		if e.Pos.IsValid() {
			e.Pos = fset.PositionFor(tf.Pos(e.Pos.Offset), false)
		}
	}
	list.Sort()
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
	return translate(files, m)
}

// translate is the one translation path; m is nil for a throwaway memo.
func translate(files []File, m *Memo) (*Translation, error) {
	n := len(files)
	// Parse, in parallel, every file the memo does not hold at this
	// content, and read off its globals and declared names. The first
	// parse error in file order wins.
	ents := make([]*memoFile, n)
	srcs := make([]*source, n)
	errs := make([]error, n)
	ir.ForEach(n, func(_ *struct{}, i int) {
		var h [sha256.Size]byte
		if m != nil {
			h = sha256.Sum256([]byte(files[i].Src))
			if e := m.files[files[i].Name]; e != nil && e.hash == h {
				ents[i] = e
				return
			}
		}
		s, err := parse(files[i])
		if err != nil {
			errs[i] = err
			return
		}
		srcs[i] = s
		ents[i] = &memoFile{hash: h, globals: fileGlobals(s.fset, s.file), decls: declNames(s.file)}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	// Cross-file context: the shared-variable union, and each file's
	// skipped names (owned by the first file that defines them).
	union := map[string]bool{}
	for _, e := range ents {
		for _, name := range e.globals {
			union[name] = true
		}
	}
	var shared []string // nil when no globals
	for name := range union {
		shared = append(shared, name)
	}
	sort.Strings(shared)
	globalsKey := strings.Join(shared, "\n")
	owner := map[string]int{}
	keys := make([]unitKey, n)
	skips := make([]map[string]bool, n)
	for i, e := range ents {
		var skipped []string
		for _, name := range e.decls {
			if j, ok := owner[name]; !ok {
				owner[name] = i
			} else if j < i && !skips[i][name] {
				if skips[i] == nil {
					skips[i] = map[string]bool{}
				}
				skips[i][name] = true
				skipped = append(skipped, name)
			}
		}
		keys[i] = unitKey{globals: globalsKey, skip: strings.Join(skipped, "\n")}
	}

	// Translate the stale units in parallel, then the cached ones whose
	// closure offset moved, and renumber what was translated.
	units := make([]*fileUnit, n)
	fresh := make([]bool, n)
	translateAll := func(idx []int) error {
		ir.ForEach(len(idx), func(_ *struct{}, k int) {
			i := idx[k]
			s := srcs[i]
			if s == nil { // held by the memo, but its context changed
				var err error
				if s, err = parse(files[i]); err != nil {
					errs[i] = err
					return
				}
			}
			srcs[i] = nil // drop the syntax once translated
			units[i] = translateUnit(files[i].Name, s, union, skips[i])
			fresh[i] = true
		})
		return firstError(errs)
	}
	var stale, moved []int
	for i, e := range ents {
		if e.unit != nil && e.key == keys[i] {
			units[i] = e.unit
		} else {
			stale = append(stale, i)
		}
	}
	if err := translateAll(stale); err != nil {
		return nil, err
	}
	offsets := make([]int, n)
	for i, off := 0, 0; i < n; i++ {
		offsets[i] = off
		if !fresh[i] && units[i].offset != off {
			moved = append(moved, i)
		}
		off += len(units[i].closures)
	}
	if err := translateAll(moved); err != nil {
		return nil, err
	}
	if m != nil {
		m.files = make(map[string]*memoFile, n) // files no longer in the set drop out
	}
	for i, u := range units {
		if fresh[i] {
			u.renumber(offsets[i])
		}
		if m != nil {
			ents[i].key, ents[i].unit = keys[i], u
			m.files[files[i].Name] = ents[i]
		}
	}

	// Merge the units in file order.
	out := newTranslation()
	out.Shared = shared
	methodsByBare := map[string][]*minic.FuncDef{}
	for i, u := range units {
		for _, uf := range u.funcs {
			out.Prog.Funcs = append(out.Prog.Funcs, uf.def)
			out.Prog.ByName[uf.def.Name] = uf.def
			if uf.bare != "" {
				methodsByBare[uf.bare] = append(methodsByBare[uf.bare], uf.def)
			}
		}
		out.Notes = append(out.Notes, u.notes...)
		applyIgnores(out, files[i].Name, u.ignores)
	}
	if len(out.Prog.Funcs) == 0 {
		return nil, fmt.Errorf("gosrc: no function bodies found")
	}
	registerAliases(out, methodsByBare)
	sortNotes(out.Notes)
	return out, nil
}

// firstError returns the first non-nil error, in file order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// translateUnit translates one parsed file against the package-wide
// shared-variable set, skipping the names an earlier file defines. Its
// closures are numbered from 1. The file's line table is read once, and
// every line the unit records is a physical line of the file.
func translateUnit(name string, s *source, globals, skip map[string]bool) *fileUnit {
	lines := newLineTable(s.fset.File(s.file.FileStart))
	u := &fileUnit{ignores: scanIgnores(lines, s.file)}
	t := &translator{fset: s.fset, lines: lines, file: name, unit: u, globals: globals, skip: skip, defined: map[string]bool{}}
	for _, decl := range s.file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			t.funcDecl(fd)
		}
	}
	return u
}
