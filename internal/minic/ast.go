package minic

import (
	"fmt"
	"strings"
)

// Program is a parsed translation unit.
type Program struct {
	Funcs []*FuncDef
	// ByName maps each definition's name to it. A front end with method
	// syntax may also map a method's bare name to its one definition (an
	// alias); resolve calls through Callee, which honours aliases only
	// for method calls.
	ByName map[string]*FuncDef
}

// Callee resolves a call to the function it invokes. Only a method call
// resolves through a bare-name alias, so a plain call such as the
// builtin len(x) never links to a method T.len.
func (p *Program) Callee(c *CallExpr) (*FuncDef, bool) {
	def, ok := p.ByName[c.Name]
	if !ok || (def.Name != c.Name && !c.Method) {
		return nil, false
	}
	return def, true
}

// FuncDef is a function definition.
type FuncDef struct {
	Name   string
	Params []string
	Body   []Stmt
	Line   int
	// File is the source file the definition came from, when the front
	// end tracks one (multi-file Go translation); "" otherwise.
	File string
}

// Stmt is a statement.
type Stmt interface{ stmt() }

// ExprStmt is an expression used as a statement (typically a call).
type ExprStmt struct {
	X    Expr
	Line int
}

// DeclStmt declares a local, optionally initialized.
type DeclStmt struct {
	Name string
	Init Expr // may be nil
	Line int
}

// AssignStmt assigns to a local.
type AssignStmt struct {
	Name string
	X    Expr
	Line int
}

// StoreStmt assigns through a pointer: *name = x.
type StoreStmt struct {
	Name string
	X    Expr
	Line int
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
	Line int
}

// WhileStmt is a loop.
type WhileStmt struct {
	Cond  Expr
	Body  []Stmt
	Line  int
	Label string
}

// DoWhileStmt is a do { } while (cond); loop: the body executes at least
// once.
type DoWhileStmt struct {
	Cond  Expr
	Body  []Stmt
	Line  int
	Label string
}

// ForStmt is for (init; cond; post) body. Init and Post may be nil.
type ForStmt struct {
	Init  Stmt
	Cond  Expr // may be nil (infinite)
	Post  Stmt
	Body  []Stmt
	Line  int
	Label string
}

// BreakStmt exits the innermost loop or switch, or the enclosing
// statement named Label when one is set.
type BreakStmt struct {
	Line  int
	Label string
}

// ContinueStmt jumps to the innermost loop's head, or the head of the
// enclosing loop named Label when one is set.
type ContinueStmt struct {
	Line  int
	Label string
}

// SwitchStmt is a C switch with fallthrough semantics.
type SwitchStmt struct {
	Cond Expr
	// Cases in source order; a case with IsDefault set has no Value.
	Cases []SwitchCase
	Line  int
	Label string
}

// SwitchCase is one case (or default) arm.
type SwitchCase struct {
	Value     Expr // nil for default
	IsDefault bool
	Body      []Stmt
	Line      int
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	X    Expr // may be nil
	Line int
}

// BlockStmt is a nested block. A labeled block is a break target
// (Go's "L: { ... break L }" and labeled non-loop statements).
type BlockStmt struct {
	Body  []Stmt
	Line  int
	Label string
}

// SpawnStmt starts a new thread of control (a goroutine) executing Call;
// the spawning function continues immediately and never joins the
// spawned call's return. Arguments are evaluated by the spawner.
type SpawnStmt struct {
	Call *CallExpr
	Line int
}

// SendStmt sends on a channel: ch <- value. Value may be nil.
type SendStmt struct {
	Chan  string
	Value Expr
	Line  int
}

// RecvStmt receives from a channel, optionally assigning the received
// value: x = <-ch, or bare <-ch when AssignTo is "".
type RecvStmt struct {
	Chan     string
	AssignTo string
	Line     int
}

// CloseStmt closes a channel.
type CloseStmt struct {
	Chan string
	Line int
}

// AccessStmt records a read or write of a shared (package-level)
// variable. The Go front end emits these for the concurrency checkers;
// they have no effect on the sequential analyses.
type AccessStmt struct {
	Name  string
	Write bool
	Line  int
}

func (*ExprStmt) stmt()     {}
func (*DeclStmt) stmt()     {}
func (*AssignStmt) stmt()   {}
func (*StoreStmt) stmt()    {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*SwitchStmt) stmt()   {}
func (*ReturnStmt) stmt()   {}
func (*BlockStmt) stmt()    {}
func (*SpawnStmt) stmt()    {}
func (*SendStmt) stmt()     {}
func (*RecvStmt) stmt()     {}
func (*CloseStmt) stmt()    {}
func (*AccessStmt) stmt()   {}

// Expr is an expression.
type Expr interface {
	expr()
	// Render gives a compact source-like form, used to match event-rule
	// argument patterns.
	Render() string
}

// CallExpr is a function call.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
	// Method marks a call written x.M(...): Args[0] is the receiver x.
	Method bool
}

// IdentExpr is an identifier use.
type IdentExpr struct{ Name string }

// NumExpr is a numeric literal (kept as text).
type NumExpr struct{ Text string }

// StrExpr is a string literal.
type StrExpr struct{ Text string }

// UnaryExpr is a prefix operator application.
type UnaryExpr struct {
	Op string
	X  Expr
}

// BinExpr is a binary operator application.
type BinExpr struct {
	Op   string
	L, R Expr
}

func (*CallExpr) expr()  {}
func (*IdentExpr) expr() {}
func (*NumExpr) expr()   {}
func (*StrExpr) expr()   {}
func (*UnaryExpr) expr() {}
func (*BinExpr) expr()   {}

// Render implements Expr.
func (e *CallExpr) Render() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Render()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ","))
}

// Render implements Expr.
func (e *IdentExpr) Render() string { return e.Name }

// Render implements Expr.
func (e *NumExpr) Render() string { return e.Text }

// Render implements Expr.
func (e *StrExpr) Render() string { return "\"" + e.Text + "\"" }

// Render implements Expr.
func (e *UnaryExpr) Render() string { return e.Op + e.X.Render() }

// Render implements Expr.
func (e *BinExpr) Render() string {
	return e.L.Render() + e.Op + e.R.Render()
}

// Calls appends every call expression within e in evaluation order
// (arguments before the call itself) to dst and returns it.
func Calls(e Expr, dst []*CallExpr) []*CallExpr {
	switch x := e.(type) {
	case *CallExpr:
		for _, a := range x.Args {
			dst = Calls(a, dst)
		}
		dst = append(dst, x)
	case *UnaryExpr:
		dst = Calls(x.X, dst)
	case *BinExpr:
		dst = Calls(x.L, dst)
		dst = Calls(x.R, dst)
	}
	return dst
}
