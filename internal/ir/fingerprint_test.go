package ir

import (
	"testing"

	"rasc/internal/minic"
)

// goldenProgram is a fixed kernel program whose bodies use every
// statement and expression kind the fingerprint writer renders: labels on
// every labelable statement, a switch with a default case, for init and
// post clauses, the concurrency statements the Go front end emits, an
// alias call, an external call, and a string literal with escapes,
// control bytes, an invalid UTF-8 byte and non-ASCII text. It is built as
// an AST rather than parsed because the mini-C parser produces neither
// labels nor shared-variable accesses.
func goldenProgram() *minic.Program {
	id := func(n string) minic.Expr { return &minic.IdentExpr{Name: n} }
	num := func(t string) minic.Expr { return &minic.NumExpr{Text: t} }
	call := func(name string, line int, args ...minic.Expr) *minic.CallExpr {
		return &minic.CallExpr{Name: name, Args: args, Line: line}
	}
	// Only a method call resolves through an alias.
	method := func(name string, line int, args ...minic.Expr) *minic.CallExpr {
		c := call(name, line, args...)
		c.Method = true
		return c
	}
	mainFn := &minic.FuncDef{Name: "main", Params: []string{"argc", "argv"}, Line: 3, File: "a.go", Body: []minic.Stmt{
		&minic.DeclStmt{Name: "fd", Init: call("open", 4, &minic.StrExpr{Text: `/tmp/x \"q\"\n\t€ ünï ✓`}, num("0x1F")), Line: 4},
		&minic.DeclStmt{Name: "i", Line: 5},
		&minic.AssignStmt{Name: "i", X: &minic.UnaryExpr{Op: "-", X: num("1")}, Line: 6},
		&minic.StoreStmt{Name: "p", X: &minic.BinExpr{Op: "+", L: id("i"), R: num("2")}, Line: 7},
		&minic.IfStmt{Cond: &minic.BinExpr{Op: "==", L: id("fd"), R: num("0")},
			Then: []minic.Stmt{&minic.ExprStmt{X: method("run", 8, id("fd")), Line: 8}},
			Else: []minic.Stmt{&minic.ExprStmt{X: call("printf", 9, &minic.StrExpr{Text: "bad\x01\xffé"}), Line: 9}},
			Line: 8},
		&minic.IfStmt{Cond: id("argc"), Then: []minic.Stmt{&minic.ReturnStmt{Line: 10}}, Line: 10},
		&minic.WhileStmt{Cond: &minic.UnaryExpr{Op: "!", X: id("i")}, Label: "outer", Line: 11, Body: []minic.Stmt{
			&minic.DoWhileStmt{Cond: id("i"), Label: "inner", Line: 12, Body: []minic.Stmt{
				&minic.ContinueStmt{Label: "outer", Line: 13},
				&minic.BreakStmt{Label: "inner", Line: 14},
				&minic.ContinueStmt{Line: 15},
				&minic.BreakStmt{Line: 16},
			}},
		}},
		&minic.ForStmt{
			Init:  &minic.DeclStmt{Name: "k", Init: num("0"), Line: 17},
			Cond:  &minic.BinExpr{Op: "<", L: id("k"), R: num("10")},
			Post:  &minic.AssignStmt{Name: "k", X: &minic.BinExpr{Op: "+", L: id("k"), R: num("1")}, Line: 17},
			Label: "loop", Line: 17,
			Body: []minic.Stmt{&minic.ExprStmt{X: call("leaf", 18), Line: 18}},
		},
		&minic.ForStmt{Line: 19, Body: []minic.Stmt{&minic.BreakStmt{Line: 19}}},
		&minic.SwitchStmt{Cond: id("i"), Label: "sw", Line: 20, Cases: []minic.SwitchCase{
			{Value: num("1"), Line: 21, Body: []minic.Stmt{&minic.BreakStmt{Label: "sw", Line: 21}}},
			{Value: num("2"), Line: 22},
			{IsDefault: true, Line: 23, Body: []minic.Stmt{&minic.ExprStmt{X: call("close", 23, id("fd")), Line: 23}}},
		}},
		&minic.BlockStmt{Label: "blk", Line: 24, Body: []minic.Stmt{
			&minic.BreakStmt{Label: "blk", Line: 25},
		}},
		&minic.BlockStmt{Line: 26, Body: []minic.Stmt{
			&minic.SpawnStmt{Call: call("worker", 27, id("ch")), Line: 27},
			&minic.SendStmt{Chan: "ch", Value: id("fd"), Line: 28},
			&minic.SendStmt{Chan: "done", Line: 29},
			&minic.CloseStmt{Chan: "ch", Line: 30},
		}},
		&minic.ReturnStmt{X: num("0"), Line: 31},
	}}
	worker := &minic.FuncDef{Name: "worker", Params: []string{"ch"}, Line: 40, File: "b.go", Body: []minic.Stmt{
		&minic.RecvStmt{Chan: "ch", AssignTo: "v", Line: 41},
		&minic.RecvStmt{Chan: "ch", Line: 42},
		&minic.AccessStmt{Name: "shared", Line: 43},
		&minic.AccessStmt{Name: "shared", Write: true, Line: 44},
		&minic.IfStmt{Cond: id("v"), Then: []minic.Stmt{&minic.ExprStmt{X: call("main", 45, num("0"), id("v")), Line: 45}}, Line: 45},
		&minic.ExprStmt{X: call("leaf", 46), Line: 46},
	}}
	leaf := &minic.FuncDef{Name: "leaf", Line: 50, File: "b.go", Body: []minic.Stmt{
		&minic.ExprStmt{X: call("work", 51, num("42")), Line: 51},
	}}
	mc := &minic.Program{Funcs: []*minic.FuncDef{mainFn, worker, leaf}, ByName: map[string]*minic.FuncDef{}}
	for _, fd := range mc.Funcs {
		mc.ByName[fd.Name] = fd
	}
	mc.ByName["run"] = worker // an alias: calls to run resolve to worker
	return mc
}

// TestFingerprintGolden pins the Fingerprint and Summary of every
// function of goldenProgram. The fingerprint text is a fixed format:
// disk cache keys and cache records written by earlier builds derive
// from these digests, so a change to the writer that alters a single
// byte must fail here rather than silently invalidate every cache.
func TestFingerprintGolden(t *testing.T) {
	p, err := FromProgram(goldenProgram())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"main": {"6f98b713a5410ad025a9dbb5004574cebac72181e9e5836c354dff0332b915b7",
			"5c03c3b9b7167e3b89a2ae3e1c5bd37cb120eaf7105378e2499e080bf68e3ee4"},
		"worker": {"31c218129f135a9a4f229f9a37dd1da038cab4cfbac4a125cdf20fae8646505d",
			"a4407a439fce1bd32e3c3b2ca2483b80d08fc3242ab6abcfe207a0838a6c8883"},
		"leaf": {"28b844b290689ee2e08b6b7f74ce10fa6f3a8ea8c3e0d2a187e95bb1d7bb9c7a",
			"8b63144731ced49ee428e6c99a00b7b982e3becc167c58d9f7034c41c50797f1"},
	}
	if len(p.Funcs) != len(want) {
		t.Fatalf("got %d functions, want %d", len(p.Funcs), len(want))
	}
	for _, f := range p.Funcs {
		got := [2]string{f.Fingerprint.String(), f.Summary.String()}
		if got != want[f.Name] {
			t.Errorf("%s: fingerprint %s summary %s, want %s %s",
				f.Name, got[0], got[1], want[f.Name][0], want[f.Name][1])
		}
	}
	if p.ByName["main"].SCC != p.ByName["worker"].SCC || p.ByName["leaf"].SCC == p.ByName["main"].SCC {
		t.Errorf("SCCs main=%d worker=%d leaf=%d, want main and worker together, leaf apart",
			p.ByName["main"].SCC, p.ByName["worker"].SCC, p.ByName["leaf"].SCC)
	}
}
