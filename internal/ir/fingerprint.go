package ir

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"rasc/internal/minic"
)

// Digest is a content fingerprint (SHA-256).
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// fingerprint computes every function's content Fingerprint and then the
// Summary keys bottom-up over the SCC DAG.
//
// The fingerprint must change whenever the function's contribution to
// any analysis result could change. It therefore covers:
//
//   - the canonical name, source file and definition line (diagnostics
//     embed positions, so a moved definition must re-solve);
//   - the parameter list and the full normalized statement tree with
//     per-statement line numbers;
//   - for every call expression, the canonical name of the defined
//     function it resolves to ("" for external calls). Resolution
//     depends on the whole program — adding a second method named M
//     elsewhere turns an unambiguous alias call into an external one —
//     so baking the resolved name into the caller's fingerprint makes
//     such non-local edits invalidate exactly the affected callers.
//
// The Summary of a function combines its own fingerprint with a closure
// hash of its SCC: the sorted member fingerprints plus the sorted
// closure hashes of every callee SCC. Computed bottom-up, an edit to
// function f changes the Summary of exactly f's SCC members and their
// transitive callers — the invalidation frontier incremental drivers
// re-solve.
func (p *Program) fingerprint() {
	for _, f := range p.Funcs {
		f.Fingerprint = fingerprintFunc(p.MC, f.Def)
	}
	p.summarize()
}

// summarize computes the SCC closure hashes and per-function Summary
// keys from the already-set Fingerprints (bottom-up over the SCC DAG).
func (p *Program) summarize() {
	closure := make([]Digest, len(p.SCCs))
	for ci, members := range p.SCCs { // bottom-up: callees first
		h := sha256.New()
		fps := make([]string, 0, len(members))
		for _, id := range members {
			fps = append(fps, p.Funcs[id].Fingerprint.String())
		}
		sort.Strings(fps)
		for _, fp := range fps {
			fmt.Fprintf(h, "m:%s\n", fp)
		}
		calleeSCCs := map[int]bool{}
		for _, id := range members {
			for _, c := range p.Funcs[id].Callees {
				if cs := p.Funcs[c].SCC; cs != ci {
					calleeSCCs[cs] = true
				}
			}
		}
		subs := make([]string, 0, len(calleeSCCs))
		for cs := range calleeSCCs {
			subs = append(subs, closure[cs].String())
		}
		sort.Strings(subs)
		for _, s := range subs {
			fmt.Fprintf(h, "c:%s\n", s)
		}
		copy(closure[ci][:], h.Sum(nil))
	}
	for _, f := range p.Funcs {
		h := sha256.New()
		fmt.Fprintf(h, "summary\nfp:%s\nscc:%s\n", f.Fingerprint, closure[f.SCC])
		copy(f.Summary[:], h.Sum(nil))
	}
}

// fingerprintFunc hashes one function's normalized content.
func fingerprintFunc(mc *minic.Program, fd *minic.FuncDef) Digest {
	h := sha256.New()
	w := bufio.NewWriter(h)
	fmt.Fprintf(w, "func %s file %s line %d params", fd.Name, fd.File, fd.Line)
	for _, prm := range fd.Params {
		fmt.Fprintf(w, " %s", prm)
	}
	w.WriteByte('\n')
	fw := &fpWriter{w: w, mc: mc}
	fw.stmts(fd.Body)
	w.Flush()
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// fpWriter renders the statement tree in a canonical textual form.
type fpWriter struct {
	w  *bufio.Writer
	mc *minic.Program
}

func (f *fpWriter) stmts(body []minic.Stmt) {
	f.w.WriteByte('{')
	for _, st := range body {
		f.stmt(st)
	}
	f.w.WriteByte('}')
}

func (f *fpWriter) stmt(st minic.Stmt) {
	switch s := st.(type) {
	case *minic.ExprStmt:
		fmt.Fprintf(f.w, "expr@%d ", s.Line)
		f.expr(s.X)
	case *minic.DeclStmt:
		fmt.Fprintf(f.w, "decl@%d %s=", s.Line, s.Name)
		f.expr(s.Init)
	case *minic.AssignStmt:
		fmt.Fprintf(f.w, "assign@%d %s=", s.Line, s.Name)
		f.expr(s.X)
	case *minic.StoreStmt:
		fmt.Fprintf(f.w, "store@%d *%s=", s.Line, s.Name)
		f.expr(s.X)
	case *minic.IfStmt:
		fmt.Fprintf(f.w, "if@%d ", s.Line)
		f.expr(s.Cond)
		f.stmts(s.Then)
		if s.Else != nil {
			f.w.WriteString("else")
			f.stmts(s.Else)
		}
	case *minic.WhileStmt:
		fmt.Fprintf(f.w, "while@%d:%s ", s.Line, s.Label)
		f.expr(s.Cond)
		f.stmts(s.Body)
	case *minic.DoWhileStmt:
		fmt.Fprintf(f.w, "dowhile@%d:%s ", s.Line, s.Label)
		f.expr(s.Cond)
		f.stmts(s.Body)
	case *minic.ForStmt:
		fmt.Fprintf(f.w, "for@%d:%s init", s.Line, s.Label)
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.w.WriteString(" cond ")
		f.expr(s.Cond)
		f.w.WriteString(" post")
		if s.Post != nil {
			f.stmt(s.Post)
		}
		f.stmts(s.Body)
	case *minic.BreakStmt:
		fmt.Fprintf(f.w, "break@%d:%s", s.Line, s.Label)
	case *minic.ContinueStmt:
		fmt.Fprintf(f.w, "continue@%d:%s", s.Line, s.Label)
	case *minic.SwitchStmt:
		fmt.Fprintf(f.w, "switch@%d:%s ", s.Line, s.Label)
		f.expr(s.Cond)
		for _, c := range s.Cases {
			fmt.Fprintf(f.w, "case@%d default=%t ", c.Line, c.IsDefault)
			f.expr(c.Value)
			f.stmts(c.Body)
		}
	case *minic.ReturnStmt:
		fmt.Fprintf(f.w, "return@%d ", s.Line)
		f.expr(s.X)
	case *minic.BlockStmt:
		fmt.Fprintf(f.w, "block@%d:%s", s.Line, s.Label)
		f.stmts(s.Body)
	case *minic.SpawnStmt:
		fmt.Fprintf(f.w, "spawn@%d ", s.Line)
		f.expr(s.Call)
	case *minic.SendStmt:
		fmt.Fprintf(f.w, "send@%d %s<-", s.Line, s.Chan)
		f.expr(s.Value)
	case *minic.RecvStmt:
		fmt.Fprintf(f.w, "recv@%d %s=<-%s", s.Line, s.AssignTo, s.Chan)
	case *minic.CloseStmt:
		fmt.Fprintf(f.w, "close@%d %s", s.Line, s.Chan)
	case *minic.AccessStmt:
		fmt.Fprintf(f.w, "access@%d %s write=%t", s.Line, s.Name, s.Write)
	default:
		// A front end lowering a new statement kind must extend this
		// renderer; hashing a lossy form would silently under-invalidate.
		panic(fmt.Sprintf("ir: fingerprint: unknown statement %T", st))
	}
	f.w.WriteByte(';')
}

func (f *fpWriter) expr(e minic.Expr) {
	switch x := e.(type) {
	case nil:
		f.w.WriteString("nil")
	case *minic.CallExpr:
		resolved := ""
		if def, ok := f.mc.ByName[x.Name]; ok {
			resolved = def.Name
		}
		fmt.Fprintf(f.w, "call@%d %s->%s(", x.Line, x.Name, resolved)
		for i, a := range x.Args {
			if i > 0 {
				f.w.WriteByte(',')
			}
			f.expr(a)
		}
		f.w.WriteByte(')')
	case *minic.IdentExpr:
		fmt.Fprintf(f.w, "id:%s", x.Name)
	case *minic.NumExpr:
		fmt.Fprintf(f.w, "num:%s", x.Text)
	case *minic.StrExpr:
		fmt.Fprintf(f.w, "str:%q", x.Text)
	case *minic.UnaryExpr:
		fmt.Fprintf(f.w, "un:%s(", x.Op)
		f.expr(x.X)
		f.w.WriteByte(')')
	case *minic.BinExpr:
		fmt.Fprintf(f.w, "bin:%s(", x.Op)
		f.expr(x.L)
		f.w.WriteByte(',')
		f.expr(x.R)
		f.w.WriteByte(')')
	default:
		panic(fmt.Sprintf("ir: fingerprint: unknown expression %T", e))
	}
}
