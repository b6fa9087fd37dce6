package gosrc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"

	"rasc/internal/minic"
)

// translateSequential is the differential tests' oracle for the unit
// and merge path: the sequential translation that path replaced. It
// parses every file into one FileSet, then translates the files in
// order through one unit whose defined names and closure counter run
// across files, so first-wins duplicates and package-wide closure
// numbers follow from the order of the pass alone — no ownership
// pre-pass, renumbering or memo. It translates each function body with
// the same translator as the unit path, so it checks only how units
// are split, cached and merged, never the statement output itself;
// TestTranslationGolden pins that.
func translateSequential(files []File) (*Translation, error) {
	fset := token.NewFileSet()
	out := newTranslation()
	// Pass 1: parse every file, so package-level shared variables are
	// known before any function body is translated.
	parsed := make([]*ast.File, len(files))
	globals := map[string]bool{}
	for i, f := range files {
		file, err := parser.ParseFile(fset, f.Name, f.Src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("gosrc: %w", err)
		}
		parsed[i] = file
		for _, name := range fileGlobals(fset, file) {
			globals[name] = true
		}
	}
	for name := range globals {
		out.Shared = append(out.Shared, name)
	}
	sort.Strings(out.Shared)
	u := &fileUnit{}
	defined := map[string]bool{}
	for i, f := range files {
		collectIgnores(fset, f.Name, parsed[i], out)
		lines := newLineTable(fset.File(parsed[i].FileStart))
		tr := &translator{fset: fset, lines: lines, file: f.Name, unit: u, globals: globals, defined: defined}
		for _, decl := range parsed[i].Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				tr.funcDecl(fd)
			}
		}
	}
	// methodsByBare collects method defs per bare name for alias
	// registration once all files are seen.
	methodsByBare := map[string][]*minic.FuncDef{}
	for _, uf := range u.funcs {
		out.Prog.Funcs = append(out.Prog.Funcs, uf.def)
		out.Prog.ByName[uf.def.Name] = uf.def
		if uf.bare != "" {
			methodsByBare[uf.bare] = append(methodsByBare[uf.bare], uf.def)
		}
	}
	out.Notes = u.notes
	if len(out.Prog.Funcs) == 0 {
		return nil, fmt.Errorf("gosrc: no function bodies found")
	}
	registerAliases(out, methodsByBare)
	sortNotes(out.Notes)
	return out, nil
}

// collectIgnores is the sequential path's directive collector: it
// records //rasc:ignore[=checker,...] line directives and
// //rasc:ignore-file[=checker,...] file directives straight into out.
func collectIgnores(fset *token.FileSet, name string, file *ast.File, out *Translation) {
	into := out.Ignores
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "rasc:ignore") {
				continue
			}
			if strings.HasPrefix(text, "rasc:ignore-file") {
				rest := strings.TrimPrefix(text, "rasc:ignore-file")
				checkers, ok := ignoreCheckers(rest)
				if !ok {
					continue
				}
				// A bare //rasc:ignore-file suppresses every checker in
				// the file and absorbs any named ones.
				cur, seen := out.FileIgnores[name]
				if len(checkers) == 0 || (seen && len(cur) == 0) {
					out.FileIgnores[name] = []string{}
				} else {
					out.FileIgnores[name] = append(cur, checkers...)
				}
				continue
			}
			rest := strings.TrimPrefix(text, "rasc:ignore")
			checkers, ok := ignoreCheckers(rest)
			if !ok {
				continue
			}
			line := fset.PositionFor(c.Pos(), false).Line
			m := into[name]
			if m == nil {
				m = map[int][]string{}
				into[name] = m
			}
			// An empty checker list (bare //rasc:ignore) suppresses all
			// checkers on the line and absorbs any named ones.
			cur, seen := m[line]
			switch {
			case len(checkers) == 0 || (seen && len(cur) == 0):
				m[line] = []string{}
			default:
				m[line] = append(cur, checkers...)
			}
		}
	}
}
