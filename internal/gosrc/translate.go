// Package gosrc is a Go source front end for the analyses in this
// repository: it parses Go files with go/parser and translates each
// function into the mini-C intermediate form (package minic), so that the
// pushdown model checker (pdm), the post* baseline (mops), the taint
// analysis (bitvector) and the danger-point chop all run unchanged on
// real Go code.
//
// The translation is a sound control-flow abstraction, not a Go semantics:
//
//   - conditions are nondeterministic (both branches possible), as in the
//     rest of the toolkit;
//   - method calls x.M(...) become calls to M with the rendered receiver
//     prepended as argument 0, so parametric properties can label the
//     receiver (mu.Lock() → Lock(mu), matched per mutex name);
//   - defer is expanded: the deferred calls run, in LIFO order, before
//     every return and at the end of the function body;
//   - go f() becomes a spawn statement (minic.SpawnStmt): the spawned
//     call starts a new goroutine in the CFG; go func(){...}() closures
//     are translated into synthesized functions ("f$go1") and spawned;
//   - channel operations become channel statements: ch <- v, <-ch and
//     close(ch) map to minic.SendStmt/RecvStmt/CloseStmt, parametric in
//     the channel's rendering;
//   - sync.Mutex/RWMutex usage keeps per-object lock identities (the
//     receiver rendering), and once.Do(f) becomes a conditional call
//     to f (it runs at most once);
//   - reads and writes of package-level var declarations (except sync,
//     channel and func values) are recorded as shared-variable access
//     statements for the race checker — scope-blind: a local that
//     shadows a package var in a nested scope may be misattributed;
//   - range loops become condition-less loops over the body;
//   - switch (expression and type switches) becomes the branch structure
//     with Go's implicit break, honoring explicit fallthrough;
//   - select branches are all considered possible;
//   - labeled break/continue target the labeled loop or switch; labeled
//     non-loop statements become break targets; goto is NOT modeled (it
//     over-approximates as fall-through) and is reported as a Note.
//
// Plain functions are identified by name; methods are qualified by their
// receiver type ("T.M") so same-named methods on different receivers are
// all analyzed. When a method name is unambiguous across the program, a
// bare-name alias ("M" -> "T.M") is registered so call sites x.M(...)
// resolve interprocedurally; ambiguous method calls stay external calls.
//
// Every line the translation records is a physical line of its file,
// read from the file's own line table: //line directives are ignored,
// since diagnostics name the physical file. Statement translation
// allocates only the nodes it keeps: statements append to their block's
// slice, one reused walker collects each statement's shared reads, and
// line lookups binary-search the table instead of going through the
// FileSet.
package gosrc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"slices"
	"strconv"
	"strings"

	"rasc/internal/ir"
	"rasc/internal/minic"
)

// File is one Go source file handed to the translator.
type File = ir.SourceFile

// Note is a translation remark: a construct the abstraction handles
// imprecisely (goto, duplicate definitions, ambiguous method names).
type Note = ir.Note

// Translation is the result of translating a set of Go files.
type Translation struct {
	// Prog is the merged mini-C program; every FuncDef carries the source
	// File it came from.
	Prog *minic.Program
	// Meta holds the translation's notes, //rasc:ignore directives and
	// shared variables, exactly as lowering attaches them to the IR.
	ir.Meta
}

// newTranslation returns an empty translation ready to fill.
func newTranslation() *Translation {
	return &Translation{
		Prog: &minic.Program{ByName: map[string]*minic.FuncDef{}},
		Meta: ir.Meta{Ignores: map[string]map[int][]string{}, FileIgnores: map[string][]string{}},
	}
}

// Translate parses a single Go source buffer and translates every
// function (including methods) into a mini-C program. Functions keep
// their Go source line numbers so diagnostics point into the original
// file. Translation notes are discarded; use TranslateFiles to get them.
func Translate(src string) (*minic.Program, error) {
	tr, err := TranslateFiles([]File{{Name: "src.go", Src: src}})
	if err != nil {
		return nil, err
	}
	return tr.Prog, nil
}

// Lower parses and translates a set of Go files and lowers the result
// into the frontend-neutral IR: the kernel program plus its CFG, call
// graph, fingerprints and summary keys, with the translation's notes and
// suppression directives attached as ir.Meta. This is the entry point
// package drivers consume; Translate/TranslateFiles remain for callers
// that want the raw kernel form.
func Lower(files []File) (*ir.Program, error) {
	tr, err := TranslateFiles(files)
	if err != nil {
		return nil, err
	}
	return ir.New(tr.Prog, tr.Meta)
}

// TranslateFiles parses a set of Go files and merges every function
// across them into one mini-C program, so whole-package properties check
// interprocedurally before CFG construction. Files are processed in the
// given order; duplicate definitions keep the first body and add a Note.
// It is TranslateFilesMemo with a throwaway memo: every file is parsed
// and translated as its own unit on GOMAXPROCS workers.
func TranslateFiles(files []File) (*Translation, error) { return translate(files, nil) }

// qualifiedName returns the name a function declaration defines —
// "T.M" for a method of T, the plain name otherwise — and, for a
// method, its bare name, the candidate alias.
func qualifiedName(fd *ast.FuncDecl) (name, bare string) {
	if fd.Recv != nil {
		if rt := recvTypeName(fd.Recv); rt != "" {
			return rt + "." + fd.Name.Name, fd.Name.Name
		}
	}
	return fd.Name.Name, ""
}

// funcDecl translates one function declaration into t.unit: it
// dup-checks the qualified name (first definition wins: a name an
// earlier file or declaration defines gets a Note and no translation),
// translates the body with defers expanded, and appends the definition
// after the closures its body synthesized.
func (t *translator) funcDecl(fd *ast.FuncDecl) {
	name, bare := qualifiedName(fd)
	if t.skip[name] || t.defined[name] {
		// Same qualified name twice (e.g. two files defining
		// main): keep the first body, note the rest.
		t.note(fd.Pos(), fmt.Sprintf("duplicate definition of %s ignored (first wins)", name))
		return
	}
	t.defined[name] = true
	t.deferred = nil
	t.fnName = name
	t.locals = localNames(fd)
	def := &minic.FuncDef{
		Name: name,
		Line: t.line(fd.Pos()),
		File: t.file,
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		def.Params = append(def.Params, fd.Recv.List[0].Names[0].Name)
	}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			for _, n := range p.Names {
				def.Params = append(def.Params, n.Name)
			}
		}
	}
	// Deferred calls run at the end of the body (return statements
	// were already expanded inside).
	def.Body = t.deferredCalls(t.block(fd.Body))
	t.unit.funcs = append(t.unit.funcs, unitFunc{def: def, bare: bare})
}

// registerAliases applies the bare-name alias pass: x.M(...) translates
// to M(x, ...), so a uniquely named method resolves interprocedurally
// through the alias (minic.Program.Callee; a plain call M(...) never
// does). An ambiguous name (several receivers) stays external, noted
// once.
func registerAliases(out *Translation, methodsByBare map[string][]*minic.FuncDef) {
	prog := out.Prog
	for bare, defs := range methodsByBare {
		if _, taken := prog.ByName[bare]; taken {
			continue // a plain function M shadows method aliases
		}
		if len(defs) == 1 {
			prog.ByName[bare] = defs[0]
			continue
		}
		out.Notes = append(out.Notes, Note{
			File: defs[0].File,
			Line: defs[0].Line,
			Msg: fmt.Sprintf("method name %s is defined on %d receivers; calls through it are treated as external",
				bare, len(defs)),
		})
	}
}

// recvTypeName extracts the receiver's base type name: *T -> T,
// T[P] -> T.
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) != 1 {
		return ""
	}
	typ := recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.ParenExpr:
			typ = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// fileGlobals lists the package-level var names one file declares; their
// union over the package is the shared variables the concurrency
// checkers track. Variables of synchronization or function shape
// (sync.*, channels, funcs) are excluded: they are modeled as events,
// not data.
func fileGlobals(fset *token.FileSet, file *ast.File) []string {
	var out []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || syncShaped(fset, vs) {
				continue
			}
			for _, n := range vs.Names {
				if n.Name != "_" {
					out = append(out, n.Name)
				}
			}
		}
	}
	return out
}

// declNames lists the qualified names of a file's function bodies, in
// declaration order: the names whose first definition wins.
func declNames(file *ast.File) []string {
	var out []string
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			name, _ := qualifiedName(fd)
			out = append(out, name)
		}
	}
	return out
}

// syncShaped reports whether a var spec's type or initializer names a
// synchronization or function type (type-blind, by rendering).
func syncShaped(fset *token.FileSet, vs *ast.ValueSpec) bool {
	check := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, e); err != nil {
			return false
		}
		s := buf.String()
		return strings.Contains(s, "sync.") || containsWord(s, "chan") || containsWord(s, "func")
	}
	if check(vs.Type) {
		return true
	}
	for _, v := range vs.Values {
		if check(v) {
			return true
		}
	}
	return false
}

// containsWord reports whether s contains word as a whole identifier.
func containsWord(s, word string) bool {
	for i := 0; i+len(word) <= len(s); i++ {
		if s[i:i+len(word)] != word {
			continue
		}
		before := i == 0 || !isIdentByte(s[i-1])
		after := i+len(word) == len(s) || !isIdentByte(s[i+len(word)])
		if before && after {
			return true
		}
	}
	return false
}

func isIdentByte(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// localNames gathers every name bound inside a function declaration —
// receiver, parameters, results, :=-definitions, var/const declarations,
// range and closure bindings — scope-blind, to decide when an identifier
// refers to a package-level shared variable.
func localNames(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				out[n.Name] = true
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, l := range x.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				out[id.Name] = true
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				if id, ok := x.Key.(*ast.Ident); ok {
					out[id.Name] = true
				}
				if id, ok := x.Value.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		case *ast.FuncLit:
			addFields(x.Type.Params)
			addFields(x.Type.Results)
		}
		return true
	})
	return out
}

// directive is one //rasc:ignore[=checker,...] comment: the line it
// suppresses, or 0 for a //rasc:ignore-file[=checker,...] comment, and
// the checkers it names (none: every checker).
type directive struct {
	line     int
	checkers []string
}

// scanIgnores lists a file's suppression directives in source order,
// each at its physical line.
func scanIgnores(lines lineTable, file *ast.File) []directive {
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, isFile := strings.CutPrefix(text, "rasc:ignore-file")
			if !isFile {
				var ok bool
				if rest, ok = strings.CutPrefix(text, "rasc:ignore"); !ok {
					continue
				}
			}
			checkers, ok := ignoreCheckers(rest)
			if !ok {
				continue
			}
			d := directive{checkers: checkers}
			if !isFile {
				d.line = lines.line(c.Pos())
			}
			out = append(out, d)
		}
	}
	return out
}

// applyIgnores records a file's directives in out. A directive naming no
// checker suppresses every checker on its line (or in its file) and
// absorbs any named ones.
func applyIgnores(out *Translation, name string, dirs []directive) {
	absorb := func(cur []string, seen bool, checkers []string) []string {
		if len(checkers) == 0 || (seen && len(cur) == 0) {
			return []string{}
		}
		return append(cur, checkers...)
	}
	for _, d := range dirs {
		if d.line == 0 {
			cur, seen := out.FileIgnores[name]
			out.FileIgnores[name] = absorb(cur, seen, d.checkers)
			continue
		}
		m := out.Ignores[name]
		if m == nil {
			m = map[int][]string{}
			out.Ignores[name] = m
		}
		cur, seen := m[d.line]
		m[d.line] = absorb(cur, seen, d.checkers)
	}
}

// ignoreCheckers parses the tail of an ignore directive: "" (bare),
// "=a,b" (named). Any other tail means the comment is not a directive.
func ignoreCheckers(rest string) ([]string, bool) {
	var checkers []string
	if strings.HasPrefix(rest, "=") {
		for _, n := range strings.Split(rest[1:], ",") {
			if n = strings.TrimSpace(n); n != "" {
				checkers = append(checkers, n)
			}
		}
	} else if rest != "" && !strings.HasPrefix(rest, " ") {
		return nil, false // e.g. "rasc:ignorethis" is not a directive
	}
	return checkers, true
}

func sortNotes(notes []Note) {
	for i := 1; i < len(notes); i++ {
		for j := i; j > 0; j-- {
			a, b := notes[j-1], notes[j]
			if a.File < b.File || (a.File == b.File && a.Line <= b.Line) {
				break
			}
			notes[j-1], notes[j] = b, a
		}
	}
}

// MustTranslate panics on error.
func MustTranslate(src string) *minic.Program {
	p, err := Translate(src)
	if err != nil {
		panic(err)
	}
	return p
}

// lineTable maps a file's positions to physical line numbers: the
// file's base and the offsets at which its lines start
// (token.File.Lines). Unlike FileSet.Position it ignores //line
// directives, so a line always belongs to the file that is reported.
type lineTable struct {
	base   int
	starts []int
}

func newLineTable(f *token.File) lineTable { return lineTable{base: f.Base(), starts: f.Lines()} }

// line returns the 1-based line of p, 0 for a position before the file.
func (lt lineTable) line(p token.Pos) int {
	i, found := slices.BinarySearch(lt.starts, int(p)-lt.base)
	if found {
		return i + 1
	}
	return i
}

type translator struct {
	fset  *token.FileSet
	lines lineTable
	file  string
	unit  *fileUnit
	// globals holds the package-level shared variables; locals the names
	// bound in the current function (scope-blind, see localNames).
	globals map[string]bool
	locals  map[string]bool
	// skip holds the qualified names an earlier file defines; defined
	// those this file has defined so far.
	skip, defined map[string]bool
	// fnName is the (qualified) name of the function being translated,
	// used to name synthesized goroutine closures.
	fnName string
	// deferred calls of the current function, in defer order.
	deferred []*minic.CallExpr
	// reads is the shared-read walker, reused by every statement.
	reads readWalker
}

func (t *translator) line(p token.Pos) int { return t.lines.line(p) }

func (t *translator) note(p token.Pos, msg string) {
	t.unit.notes = append(t.unit.notes, Note{File: t.file, Line: t.line(p), Msg: msg})
}

func (t *translator) render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, t.fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// deferredCalls appends the recorded defers to out in LIFO order.
func (t *translator) deferredCalls(out []minic.Stmt) []minic.Stmt {
	for i := len(t.deferred) - 1; i >= 0; i-- {
		out = append(out, &minic.ExprStmt{X: t.deferred[i], Line: t.deferred[i].Line})
	}
	return out
}

// closureCall synthesizes a function definition from a closure body (a
// go func(){...}() spawn or a once.Do(func(){...}) argument) and returns
// a call to it at line. The "$" in the name cannot collide with a Go
// identifier. Closures are numbered from 1 within the unit, in the order
// they are met; the merge renumbers them package-wide (see
// fileUnit.renumber).
func (t *translator) closureCall(fl *ast.FuncLit, suffix string, line int) *minic.CallExpr {
	base := t.fnName + "$" + suffix
	name := base + strconv.Itoa(len(t.unit.closures)+1)
	def := &minic.FuncDef{Name: name, Line: t.line(fl.Pos()), File: t.file}
	call := &minic.CallExpr{Name: name, Line: line}
	t.unit.closures = append(t.unit.closures, closureRef{def: def, call: call, base: base})
	if fl.Type.Params != nil {
		for _, p := range fl.Type.Params.List {
			for _, n := range p.Names {
				def.Params = append(def.Params, n.Name)
			}
		}
	}
	// The closure gets its own defer scope; captured locals stay in
	// t.locals, which localNames already collected closure-deep.
	saved := t.deferred
	t.deferred = nil
	def.Body = t.deferredCalls(t.block(fl.Body))
	t.deferred = saved
	t.unit.funcs = append(t.unit.funcs, unitFunc{def: def})
	return call
}

// readWalker appends a read-access statement for every package-level
// shared variable (a global not shadowed by a function-local name) an
// expression reads, in source encounter order, each name once per
// statement. Callee names, selector fields and composite-literal keys
// are skipped; receivers and arguments are visited. Closure bodies are
// not entered (their accesses surface where the closure is translated
// as a function, or not at all for hoisted-call closures).
type readWalker struct {
	t *translator
	// out is the statement output being appended to; the reads of the
	// current statement start at out[from].
	out  []minic.Stmt
	from int
	line int
}

func (w *readWalker) Visit(n ast.Node) ast.Visitor {
	switch x := n.(type) {
	case *ast.CallExpr:
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			// skip the callee name
		case *ast.SelectorExpr:
			ast.Walk(w, fun.X)
		default:
			ast.Walk(w, fun)
		}
		for _, a := range x.Args {
			ast.Walk(w, a)
		}
		return nil
	case *ast.SelectorExpr:
		ast.Walk(w, x.X)
		return nil
	case *ast.KeyValueExpr:
		ast.Walk(w, x.Value)
		return nil
	case *ast.Ident:
		w.read(x.Name)
		return nil
	case *ast.FuncLit:
		return nil
	}
	return w
}

func (w *readWalker) read(name string) {
	if w.t.globals[name] && !w.t.locals[name] && !accesses(w.out[w.from:], name) {
		w.out = append(w.out, &minic.AccessStmt{Name: name, Line: w.line})
	}
}

// accesses reports whether one of stmts, all access statements, names
// name: a statement's accesses are a handful, so a scan beats a set.
func accesses(stmts []minic.Stmt, name string) bool {
	for _, st := range stmts {
		if st.(*minic.AccessStmt).Name == name {
			return true
		}
	}
	return false
}

// sharedReads appends to out a read-access statement for every shared
// variable read in exprs, deduplicated, in source encounter order.
func (t *translator) sharedReads(out []minic.Stmt, line int, exprs ...ast.Expr) []minic.Stmt {
	w := &t.reads
	w.t, w.out, w.from, w.line = t, out, len(out), line
	for _, e := range exprs {
		if e != nil {
			ast.Walk(w, e)
		}
	}
	out, w.out = w.out, nil
	return out
}

// sharedWriteTarget unwraps an assignment target (x, x.f, x[i], *x, (x))
// to its base identifier and returns it if it is a shared variable.
func (t *translator) sharedWriteTarget(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			if t.globals[x.Name] && !t.locals[x.Name] {
				return x.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// sharedWrites appends to out a write-access statement for each shared
// variable among the assignment targets in lhs, once per name.
func (t *translator) sharedWrites(out []minic.Stmt, line int, lhs []ast.Expr) []minic.Stmt {
	from := len(out)
	for _, l := range lhs {
		if name := t.sharedWriteTarget(l); name != "" && !accesses(out[from:], name) {
			out = append(out, &minic.AccessStmt{Name: name, Write: true, Line: line})
		}
	}
	return out
}

func (t *translator) block(b *ast.BlockStmt) []minic.Stmt { return t.stmts(b.List) }

// stmts translates a statement list into a slice of its own.
func (t *translator) stmts(list []ast.Stmt) []minic.Stmt {
	var out []minic.Stmt
	for _, st := range list {
		out = t.stmt(out, st)
	}
	return out
}

// stmt appends the translation of st to out.
func (t *translator) stmt(out []minic.Stmt, st ast.Stmt) []minic.Stmt {
	switch s := st.(type) {
	case *ast.ExprStmt:
		line := t.line(s.Pos())
		// <-ch as a statement is a channel receive.
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return append(out, &minic.RecvStmt{Chan: t.render(u.X), Line: line})
		}
		if c, ok := s.X.(*ast.CallExpr); ok {
			if special := t.specialCall(c, line); special != nil {
				return append(out, special)
			}
		}
		out = t.sharedReads(out, line, s.X)
		if x := t.expr(s.X); x != nil {
			out = append(out, &minic.ExprStmt{X: x, Line: line})
		}
		return out
	case *ast.AssignStmt:
		line := t.line(s.Pos())
		out = t.sharedReads(out, line, s.Rhs...)
		// x = <-ch / x := <-ch is a channel receive labelled with x.
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				assignTo := ""
				if len(s.Lhs) == 1 {
					if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						assignTo = id.Name
					}
				}
				out = append(out, &minic.RecvStmt{Chan: t.render(u.X), AssignTo: assignTo, Line: line})
				if s.Tok != token.DEFINE {
					out = t.sharedWrites(out, line, s.Lhs)
				}
				return out
			}
		}
		// Single-target assignment keeps the name (for parametric label
		// extraction: f, err := os.Open(...) labels f); multi-target
		// keeps only the calls.
		name := ""
		if len(s.Lhs) >= 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				name = id.Name
			}
		}
		for i, rhs := range s.Rhs {
			x := t.expr(rhs)
			if x == nil {
				continue
			}
			if i == 0 && name != "" {
				out = append(out, &minic.AssignStmt{Name: name, X: x, Line: line})
			} else {
				out = append(out, &minic.ExprStmt{X: x, Line: line})
			}
		}
		if s.Tok != token.DEFINE {
			// Compound assignment (x += ...) reads its target first.
			if s.Tok != token.ASSIGN {
				for _, l := range s.Lhs {
					if n := t.sharedWriteTarget(l); n != "" {
						out = append(out, &minic.AccessStmt{Name: n, Line: line})
					}
				}
			}
			out = t.sharedWrites(out, line, s.Lhs)
		}
		return out
	case *ast.DeclStmt:
		// var x = f(): keep initializer calls, labelled by the name.
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return out
		}
		line := t.line(s.Pos())
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			out = t.sharedReads(out, line, vs.Values...)
			for i, v := range vs.Values {
				x := t.expr(v)
				if x == nil {
					continue
				}
				name := ""
				if i < len(vs.Names) && vs.Names[i].Name != "_" {
					name = vs.Names[i].Name
				}
				if name != "" {
					out = append(out, &minic.DeclStmt{Name: name, Init: x, Line: line})
				} else {
					out = append(out, &minic.ExprStmt{X: x, Line: line})
				}
			}
		}
		return out
	case *ast.IfStmt:
		line := t.line(s.Pos())
		if s.Init != nil {
			out = t.stmt(out, s.Init)
		}
		out = t.sharedReads(out, line, s.Cond)
		ifs := &minic.IfStmt{
			Cond: t.condExpr(s.Cond),
			Then: t.block(s.Body),
			Line: line,
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				ifs.Else = t.block(e)
			default:
				ifs.Else = t.stmt(nil, e)
			}
		}
		return append(out, ifs)
	case *ast.ForStmt:
		f := &minic.ForStmt{Line: t.line(s.Pos())}
		if s.Init != nil {
			init := t.stmt(nil, s.Init)
			// The for-clause holds one statement; extra ones hoist.
			if len(init) > 0 {
				f.Init = init[len(init)-1]
				out = append(out, init[:len(init)-1]...)
			}
		}
		if s.Cond != nil {
			// The condition's shared reads surface once, before the loop.
			out = t.sharedReads(out, t.line(s.Cond.Pos()), s.Cond)
			f.Cond = t.condExpr(s.Cond)
		}
		if s.Post != nil {
			if post := t.stmt(nil, s.Post); len(post) > 0 {
				f.Post = post[0]
			}
		}
		f.Body = t.block(s.Body)
		return append(out, f)
	case *ast.RangeStmt:
		// range loops: a loop whose body may run zero or more times.
		line := t.line(s.Pos())
		body := t.block(s.Body)
		out = t.sharedReads(out, line, s.X)
		if x := t.expr(s.X); x != nil {
			out = append(out, &minic.ExprStmt{X: x, Line: line})
		}
		return append(out, &minic.WhileStmt{
			Cond: &minic.IdentExpr{Name: "$range"},
			Body: body,
			Line: line,
		})
	case *ast.ReturnStmt:
		line := t.line(s.Pos())
		out = t.sharedReads(out, line, s.Results...)
		for _, r := range s.Results {
			if x := t.expr(r); x != nil {
				out = append(out, &minic.ExprStmt{X: x, Line: line})
			}
		}
		// Deferred calls run before the return.
		out = t.deferredCalls(out)
		return append(out, &minic.ReturnStmt{Line: line})
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			return append(out, &minic.BreakStmt{Line: t.line(s.Pos()), Label: label})
		case token.CONTINUE:
			return append(out, &minic.ContinueStmt{Line: t.line(s.Pos()), Label: label})
		case token.FALLTHROUGH:
			// Handled by the switch translation.
			line := t.line(s.Pos())
			return append(out, &minic.ExprStmt{X: &minic.CallExpr{Name: "$fallthrough", Line: line}, Line: line})
		case token.GOTO:
			// goto is not modeled: the translation over-approximates it
			// as fall-through, which can miss or invent event orderings.
			t.note(s.Pos(), fmt.Sprintf("goto %s is not modeled (over-approximated as fall-through)", label))
		}
		return out
	case *ast.BlockStmt:
		return append(out, &minic.BlockStmt{Body: t.block(s), Line: t.line(s.Pos())})
	case *ast.DeferStmt:
		if call := t.call(s.Call); call != nil {
			t.deferred = append(t.deferred, call)
		}
		return out
	case *ast.GoStmt:
		line := t.line(s.Pos())
		var call *minic.CallExpr
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// go func(...){...}(args): synthesize the closure as a named
			// function and spawn it; args are evaluated at the spawn.
			call = t.closureCall(fl, "go", line)
			for _, a := range s.Call.Args {
				call.Args = append(call.Args, t.argExpr(a))
			}
		} else {
			call = t.call(s.Call)
		}
		if call == nil {
			return out
		}
		out = t.sharedReads(out, line, s.Call.Args...)
		return append(out, &minic.SpawnStmt{Call: call, Line: line})
	case *ast.SendStmt:
		line := t.line(s.Pos())
		out = t.sharedReads(out, line, s.Value)
		return append(out, &minic.SendStmt{Chan: t.render(s.Chan), Value: t.expr(s.Value), Line: line})
	case *ast.IncDecStmt:
		if name := t.sharedWriteTarget(s.X); name != "" {
			// x++ reads and writes x.
			line := t.line(s.Pos())
			return append(out,
				&minic.AccessStmt{Name: name, Line: line},
				&minic.AccessStmt{Name: name, Write: true, Line: line})
		}
		return out
	case *ast.SwitchStmt:
		return t.switchLike(out, s.Init, s.Tag, s.Body, s.Pos())
	case *ast.TypeSwitchStmt:
		return t.switchLike(out, s.Init, nil, s.Body, s.Pos())
	case *ast.SelectStmt:
		// Every branch possible.
		sw := &minic.SwitchStmt{Cond: &minic.IdentExpr{Name: "$select"}, Line: t.line(s.Pos())}
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			line := t.line(cc.Pos())
			sw.Cases = append(sw.Cases, minic.SwitchCase{
				IsDefault: cc.Comm == nil,
				Value:     &minic.IdentExpr{Name: "$comm"},
				Body:      append(t.stmts(cc.Body), &minic.BreakStmt{Line: line}),
				Line:      line,
			})
		}
		fixSwitchDefaults(sw)
		return append(out, sw)
	case *ast.LabeledStmt:
		// The labeled statement's own output: it is either labeled in
		// place or wrapped.
		label := s.Label.Name
		own := t.stmt(nil, s.Stmt)
		if attachLabel(own, label) {
			return append(out, own...)
		}
		if len(own) == 0 {
			// Only a goto target; nothing to translate.
			return out
		}
		// Labeled non-loop statement: wrap in a labeled block so
		// "break label" still resolves.
		return append(out, &minic.BlockStmt{Label: label, Body: own, Line: t.line(s.Pos())})
	}
	return out
}

// specialCall translates the concurrency-special call statements:
// close(ch) (the builtin) and once.Do(f). Returns nil when c is an
// ordinary call.
func (t *translator) specialCall(c *ast.CallExpr, line int) minic.Stmt {
	if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "close" && len(c.Args) == 1 {
		return &minic.CloseStmt{Chan: t.render(c.Args[0]), Line: line}
	}
	// once.Do(f): f runs at most once — a conditional call. Type-blind
	// heuristic: the receiver's rendering must mention "once" so that
	// e.g. httpClient.Do(req) stays an ordinary call.
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" || len(c.Args) != 1 ||
		!strings.Contains(strings.ToLower(t.render(sel.X)), "once") {
		return nil
	}
	var inner *minic.CallExpr
	switch arg := c.Args[0].(type) {
	case *ast.FuncLit:
		inner = t.closureCall(arg, "once", line)
	case *ast.Ident:
		inner = &minic.CallExpr{Name: arg.Name, Line: line}
	case *ast.SelectorExpr:
		inner = &minic.CallExpr{Name: arg.Sel.Name, Args: []minic.Expr{t.argExpr(arg.X)}, Line: line, Method: true}
	default:
		return nil
	}
	return &minic.IfStmt{
		Cond: &minic.IdentExpr{Name: "$once"},
		Then: []minic.Stmt{&minic.ExprStmt{X: inner, Line: line}},
		Line: line,
	}
}

// attachLabel sets the label on the first loop or switch in out (a
// labeled statement translates to at most one, possibly after hoisted
// init statements) and reports whether it found one.
func attachLabel(out []minic.Stmt, label string) bool {
	for _, st := range out {
		switch x := st.(type) {
		case *minic.ForStmt:
			x.Label = label
			return true
		case *minic.WhileStmt:
			x.Label = label
			return true
		case *minic.DoWhileStmt:
			x.Label = label
			return true
		case *minic.SwitchStmt:
			x.Label = label
			return true
		}
	}
	return false
}

// switchLike appends the translation of an expression or type switch
// to out, with Go's implicit break and explicit fallthrough.
func (t *translator) switchLike(out []minic.Stmt, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, pos token.Pos) []minic.Stmt {
	line := t.line(pos)
	if init != nil {
		out = t.stmt(out, init)
	}
	cond := minic.Expr(&minic.IdentExpr{Name: "$switch"})
	if tag != nil {
		out = t.sharedReads(out, line, tag)
		if x := t.expr(tag); x != nil {
			if c, ok := x.(*minic.CallExpr); ok {
				out = append(out, &minic.ExprStmt{X: c, Line: line})
			}
		}
	}
	sw := &minic.SwitchStmt{Cond: cond, Line: line}
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		caseLine := t.line(cc.Pos())
		caseBody := t.stmts(cc.Body)
		// Go switch: implicit break unless the body ends in fallthrough.
		if n := len(caseBody); n > 0 && isFallthroughMarker(caseBody[n-1]) {
			caseBody = caseBody[:n-1]
		} else {
			caseBody = append(caseBody, &minic.BreakStmt{Line: caseLine})
		}
		sw.Cases = append(sw.Cases, minic.SwitchCase{
			IsDefault: cc.List == nil,
			Value:     &minic.IdentExpr{Name: "$case"},
			Body:      caseBody,
			Line:      caseLine,
		})
	}
	fixSwitchDefaults(sw)
	return append(out, sw)
}

// fixSwitchDefaults enforces minic's invariant that default cases carry no
// value and non-defaults do.
func fixSwitchDefaults(sw *minic.SwitchStmt) {
	for i := range sw.Cases {
		if sw.Cases[i].IsDefault {
			sw.Cases[i].Value = nil
		}
	}
}

func isFallthroughMarker(st minic.Stmt) bool {
	es, ok := st.(*minic.ExprStmt)
	if !ok {
		return false
	}
	c, ok := es.X.(*minic.CallExpr)
	return ok && c.Name == "$fallthrough"
}

// expr translates an expression, keeping only call structure; returns nil
// when nothing analysis-relevant remains.
func (t *translator) expr(e ast.Expr) minic.Expr {
	switch x := e.(type) {
	case *ast.CallExpr:
		return t.call(x)
	case *ast.ParenExpr:
		return t.expr(x.X)
	case *ast.UnaryExpr:
		return t.expr(x.X)
	case *ast.StarExpr:
		return t.expr(x.X)
	case *ast.BinaryExpr:
		l, r := t.expr(x.X), t.expr(x.Y)
		switch {
		case l != nil && r != nil:
			return &minic.BinExpr{Op: x.Op.String(), L: l, R: r}
		case l != nil:
			return l
		default:
			return r
		}
	case *ast.Ident:
		return &minic.IdentExpr{Name: x.Name}
	case *ast.BasicLit:
		return &minic.NumExpr{Text: x.Value}
	case *ast.SelectorExpr:
		return &minic.IdentExpr{Name: t.render(x)}
	case *ast.FuncLit:
		// Closures are not inlined; their body's calls are conservatively
		// hoisted to the creation point.
		var calls []minic.Expr
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if mc := t.call(c); mc != nil {
					calls = append(calls, mc)
				}
				return false
			}
			return true
		})
		if len(calls) == 0 {
			return nil
		}
		out := calls[0]
		for _, c := range calls[1:] {
			out = &minic.BinExpr{Op: ";", L: out, R: c}
		}
		return out
	}
	return nil
}

// call translates a Go call: plain calls keep their name; method calls
// x.M(a) become M(x, a) so the receiver is argument 0, and only they
// may resolve through a method's bare-name alias.
func (t *translator) call(c *ast.CallExpr) *minic.CallExpr {
	out := &minic.CallExpr{Line: t.line(c.Pos())}
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		out.Name = fun.Name
	case *ast.SelectorExpr:
		out.Name = fun.Sel.Name
		out.Method = true
		if recv := t.argExpr(fun.X); recv != nil {
			out.Args = append(out.Args, recv)
		}
	default:
		// Indirect call: keep argument effects under an opaque name.
		out.Name = "$indirect"
	}
	for _, a := range c.Args {
		out.Args = append(out.Args, t.argExpr(a))
	}
	return out
}

// argExpr renders an argument: calls are translated (so nested calls make
// CFG actions), everything else keeps its source text for event-rule
// matching.
func (t *translator) argExpr(e ast.Expr) minic.Expr {
	if c, ok := e.(*ast.CallExpr); ok {
		return t.call(c)
	}
	if id, ok := e.(*ast.Ident); ok {
		return &minic.IdentExpr{Name: id.Name}
	}
	if bl, ok := e.(*ast.BasicLit); ok {
		return &minic.NumExpr{Text: bl.Value}
	}
	return &minic.IdentExpr{Name: t.render(e)}
}

// condExpr keeps call effects in conditions.
func (t *translator) condExpr(e ast.Expr) minic.Expr {
	if x := t.expr(e); x != nil {
		return x
	}
	return &minic.IdentExpr{Name: "$cond"}
}
