package ir

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"rasc/internal/minic"
)

// Digest is a content fingerprint (SHA-256).
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// fingerprint computes the content Fingerprint of every function that
// has none yet (build carries reused ones over), on GOMAXPROCS workers,
// and then the Summary keys bottom-up over the SCC DAG.
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
	ForEach(len(p.Funcs), func(fw *fpWriter, i int) {
		if f := p.Funcs[i]; f.Fingerprint.IsZero() {
			fw.mc = p.MC
			f.Fingerprint = fw.function(f.Def)
		}
	})
	p.summarize()
}

// summarize computes the SCC closure hashes and per-function Summary
// keys from the already-set Fingerprints (bottom-up over the SCC DAG).
// Each hash covers lines of lowercase hex, which sort like the digests
// they encode.
func (p *Program) summarize() {
	closure := make([]Digest, len(p.SCCs))
	var buf []byte
	var fps, subs []Digest
	var callees []int
	for ci, members := range p.SCCs { // bottom-up: callees first
		fps, subs, callees = fps[:0], subs[:0], callees[:0]
		for _, id := range members {
			fps = append(fps, p.Funcs[id].Fingerprint)
			for _, c := range p.Funcs[id].Callees {
				if cs := p.Funcs[c].SCC; cs != ci {
					callees = append(callees, cs)
				}
			}
		}
		slices.SortFunc(fps, compareDigests)
		buf = buf[:0]
		for _, fp := range fps {
			buf = appendLine(buf, "m:", fp)
		}
		slices.Sort(callees)
		for _, cs := range slices.Compact(callees) {
			subs = append(subs, closure[cs])
		}
		slices.SortFunc(subs, compareDigests)
		for _, sub := range subs {
			buf = appendLine(buf, "c:", sub)
		}
		closure[ci] = sha256.Sum256(buf)
	}
	for _, f := range p.Funcs {
		buf = append(buf[:0], "summary\n"...)
		buf = appendLine(buf, "fp:", f.Fingerprint)
		buf = appendLine(buf, "scc:", closure[f.SCC])
		f.Summary = sha256.Sum256(buf)
	}
}

func compareDigests(a, b Digest) int { return bytes.Compare(a[:], b[:]) }

// appendLine appends prefix, d in lowercase hex, and a newline.
func appendLine(buf []byte, prefix string, d Digest) []byte {
	buf = append(buf, prefix...)
	buf = hex.AppendEncode(buf, d[:])
	return append(buf, '\n')
}

// fpWriter renders a function's normalized content in a canonical textual
// form into one reusable buffer and hashes it. The text is a fixed
// format: cache keys and cache records written by earlier builds derive
// from it, and TestFingerprintGolden pins it byte for byte.
type fpWriter struct {
	buf []byte
	mc  *minic.Program
}

// function returns the fingerprint of one function's normalized content.
func (f *fpWriter) function(fd *minic.FuncDef) Digest {
	f.buf = f.buf[:0]
	f.str("func ", fd.Name, " file ", fd.File, " line ")
	f.int(fd.Line)
	f.str(" params")
	for _, prm := range fd.Params {
		f.str(" ", prm)
	}
	f.buf = append(f.buf, '\n')
	f.stmts(fd.Body)
	return sha256.Sum256(f.buf)
}

func (f *fpWriter) str(parts ...string) {
	for _, s := range parts {
		f.buf = append(f.buf, s...)
	}
}

func (f *fpWriter) int(n int) { f.buf = strconv.AppendInt(f.buf, int64(n), 10) }

// tag writes "kind@line".
func (f *fpWriter) tag(kind string, line int) {
	f.str(kind, "@")
	f.int(line)
}

// labeled writes "kind@line:label".
func (f *fpWriter) labeled(kind string, line int, label string) {
	f.tag(kind, line)
	f.str(":", label)
}

func (f *fpWriter) stmts(body []minic.Stmt) {
	f.buf = append(f.buf, '{')
	for _, st := range body {
		f.stmt(st)
	}
	f.buf = append(f.buf, '}')
}

func (f *fpWriter) stmt(st minic.Stmt) {
	switch s := st.(type) {
	case *minic.ExprStmt:
		f.tag("expr", s.Line)
		f.str(" ")
		f.expr(s.X)
	case *minic.DeclStmt:
		f.tag("decl", s.Line)
		f.str(" ", s.Name, "=")
		f.expr(s.Init)
	case *minic.AssignStmt:
		f.tag("assign", s.Line)
		f.str(" ", s.Name, "=")
		f.expr(s.X)
	case *minic.StoreStmt:
		f.tag("store", s.Line)
		f.str(" *", s.Name, "=")
		f.expr(s.X)
	case *minic.IfStmt:
		f.tag("if", s.Line)
		f.str(" ")
		f.expr(s.Cond)
		f.stmts(s.Then)
		if s.Else != nil {
			f.str("else")
			f.stmts(s.Else)
		}
	case *minic.WhileStmt:
		f.labeled("while", s.Line, s.Label)
		f.str(" ")
		f.expr(s.Cond)
		f.stmts(s.Body)
	case *minic.DoWhileStmt:
		f.labeled("dowhile", s.Line, s.Label)
		f.str(" ")
		f.expr(s.Cond)
		f.stmts(s.Body)
	case *minic.ForStmt:
		f.labeled("for", s.Line, s.Label)
		f.str(" init")
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.str(" cond ")
		f.expr(s.Cond)
		f.str(" post")
		if s.Post != nil {
			f.stmt(s.Post)
		}
		f.stmts(s.Body)
	case *minic.BreakStmt:
		f.labeled("break", s.Line, s.Label)
	case *minic.ContinueStmt:
		f.labeled("continue", s.Line, s.Label)
	case *minic.SwitchStmt:
		f.labeled("switch", s.Line, s.Label)
		f.str(" ")
		f.expr(s.Cond)
		for _, c := range s.Cases {
			f.tag("case", c.Line)
			f.str(" default=")
			f.buf = strconv.AppendBool(f.buf, c.IsDefault)
			f.str(" ")
			f.expr(c.Value)
			f.stmts(c.Body)
		}
	case *minic.ReturnStmt:
		f.tag("return", s.Line)
		f.str(" ")
		f.expr(s.X)
	case *minic.BlockStmt:
		f.labeled("block", s.Line, s.Label)
		f.stmts(s.Body)
	case *minic.SpawnStmt:
		f.tag("spawn", s.Line)
		f.str(" ")
		f.expr(s.Call)
	case *minic.SendStmt:
		f.tag("send", s.Line)
		f.str(" ", s.Chan, "<-")
		f.expr(s.Value)
	case *minic.RecvStmt:
		f.tag("recv", s.Line)
		f.str(" ", s.AssignTo, "=<-", s.Chan)
	case *minic.CloseStmt:
		f.tag("close", s.Line)
		f.str(" ", s.Chan)
	case *minic.AccessStmt:
		f.tag("access", s.Line)
		f.str(" ", s.Name, " write=")
		f.buf = strconv.AppendBool(f.buf, s.Write)
	default:
		// A front end lowering a new statement kind must extend this
		// renderer; hashing a lossy form would silently under-invalidate.
		panic(fmt.Sprintf("ir: fingerprint: unknown statement %T", st))
	}
	f.buf = append(f.buf, ';')
}

func (f *fpWriter) expr(e minic.Expr) {
	switch x := e.(type) {
	case nil:
		f.str("nil")
	case *minic.CallExpr:
		resolved := ""
		if def, ok := f.mc.Callee(x); ok {
			resolved = def.Name
		}
		f.tag("call", x.Line)
		f.str(" ", x.Name, "->", resolved, "(")
		for i, a := range x.Args {
			if i > 0 {
				f.buf = append(f.buf, ',')
			}
			f.expr(a)
		}
		f.buf = append(f.buf, ')')
	case *minic.IdentExpr:
		f.str("id:", x.Name)
	case *minic.NumExpr:
		f.str("num:", x.Text)
	case *minic.StrExpr:
		f.str("str:")
		f.buf = strconv.AppendQuote(f.buf, x.Text)
	case *minic.UnaryExpr:
		f.str("un:", x.Op, "(")
		f.expr(x.X)
		f.buf = append(f.buf, ')')
	case *minic.BinExpr:
		f.str("bin:", x.Op, "(")
		f.expr(x.L)
		f.buf = append(f.buf, ',')
		f.expr(x.R)
		f.buf = append(f.buf, ')')
	default:
		panic(fmt.Sprintf("ir: fingerprint: unknown expression %T", e))
	}
}
