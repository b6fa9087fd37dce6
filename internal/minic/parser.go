package minic

import "fmt"

type parser struct {
	toks []tok
	pos  int
}

func (p *parser) cur() tok  { return p.toks[p.pos] }
func (p *parser) bump() tok { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(t tok, format string, args ...interface{}) *SyntaxError {
	return &SyntaxError{t.line, t.col, fmt.Sprintf(format, args...)}
}

func (p *parser) punct(text string) (tok, error) {
	t := p.cur()
	if t.kind != tPunct || t.text != text {
		return t, p.errf(t, "expected %q, found %q", text, t.text)
	}
	return p.bump(), nil
}

func (p *parser) isPunct(text string) bool {
	t := p.cur()
	return t.kind == tPunct && t.text == text
}

func (p *parser) ident(what string) (tok, error) {
	t := p.cur()
	if t.kind != tIdent {
		return t, p.errf(t, "expected %s, found %q", what, t.text)
	}
	return p.bump(), nil
}

// typeNames are identifiers accepted (and ignored) in type positions.
var typeNames = map[string]bool{
	"void": true, "int": true, "char": true, "long": true, "unsigned": true,
	"uid_t": true, "gid_t": true, "FILE": true, "size_t": true,
}

// Parse parses a translation unit.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{ByName: map[string]*FuncDef{}}
	for p.cur().kind != tEOF {
		fd, err := p.funcDef()
		if err != nil {
			return nil, err
		}
		if _, dup := prog.ByName[fd.Name]; dup {
			return nil, p.errf(p.cur(), "duplicate function %q", fd.Name)
		}
		prog.Funcs = append(prog.Funcs, fd)
		prog.ByName[fd.Name] = fd
	}
	if len(prog.Funcs) == 0 {
		return nil, &SyntaxError{1, 1, "empty program"}
	}
	return prog, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *parser) skipTypeTokens() error {
	// Accept a sequence of type-ish identifiers and '*'.
	saw := false
	for {
		t := p.cur()
		if t.kind == tIdent && typeNames[t.text] {
			p.bump()
			saw = true
			continue
		}
		if t.kind == tPunct && t.text == "*" && saw {
			p.bump()
			continue
		}
		break
	}
	if !saw {
		return p.errf(p.cur(), "expected type name")
	}
	return nil
}

func (p *parser) funcDef() (*FuncDef, error) {
	line := p.cur().line
	if err := p.skipTypeTokens(); err != nil {
		return nil, err
	}
	name, err := p.ident("function name")
	if err != nil {
		return nil, err
	}
	if _, err := p.punct("("); err != nil {
		return nil, err
	}
	var params []string
	if !p.isPunct(")") {
		for {
			if p.cur().kind == tIdent && p.cur().text == "void" && p.peekIs(")") {
				p.bump()
				break
			}
			if err := p.skipTypeTokens(); err != nil {
				return nil, err
			}
			pn, err := p.ident("parameter name")
			if err != nil {
				return nil, err
			}
			params = append(params, pn.text)
			if p.isPunct(",") {
				p.bump()
				continue
			}
			break
		}
	}
	if _, err := p.punct(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDef{Name: name.text, Params: params, Body: body, Line: line}, nil
}

func (p *parser) peekIs(text string) bool {
	if p.pos+1 >= len(p.toks) {
		return false
	}
	t := p.toks[p.pos+1]
	return t.kind == tPunct && t.text == text
}

func (p *parser) peekKind() tokKind {
	if p.pos+1 >= len(p.toks) {
		return tEOF
	}
	return p.toks[p.pos+1].kind
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.punct("{"); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf(p.cur(), "unterminated block")
		}
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if st != nil {
			body = append(body, st)
		}
	}
	p.bump() // }
	return body, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tPunct && t.text == "{":
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{Body: body, Line: t.line}, nil
	case t.kind == tPunct && t.text == ";":
		p.bump()
		return nil, nil
	case t.kind == tIdent && t.text == "if":
		return p.ifStmt()
	case t.kind == tIdent && t.text == "while":
		return p.whileStmt()
	case t.kind == tIdent && t.text == "do":
		return p.doWhileStmt()
	case t.kind == tIdent && t.text == "for":
		return p.forStmt()
	case t.kind == tIdent && t.text == "switch":
		return p.switchStmt()
	case t.kind == tIdent && t.text == "break":
		p.bump()
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.line}, nil
	case t.kind == tIdent && t.text == "continue":
		p.bump()
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.line}, nil
	case t.kind == tIdent && t.text == "spawn" && p.peekKind() == tIdent:
		// spawn f(args); — start a goroutine running the call.
		p.bump()
		x, err := p.primary()
		if err != nil {
			return nil, err
		}
		call, ok := x.(*CallExpr)
		if !ok {
			return nil, p.errf(t, "spawn requires a call")
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &SpawnStmt{Call: call, Line: t.line}, nil
	case t.kind == tIdent && t.text == "close" && p.peekKind() == tIdent:
		// close ch; — the parenthesized form close(ch) stays a plain call.
		p.bump()
		ch, err := p.ident("channel name")
		if err != nil {
			return nil, err
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &CloseStmt{Chan: ch.text, Line: t.line}, nil
	case t.kind == tPunct && t.text == "<-":
		// <-ch; — a receive whose value is discarded.
		p.bump()
		ch, err := p.ident("channel name")
		if err != nil {
			return nil, err
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &RecvStmt{Chan: ch.text, Line: t.line}, nil
	case t.kind == tIdent && p.peekIs("<-"):
		// ch <- expr; — a channel send.
		ch := p.bump()
		p.bump() // <-
		var val Expr
		if !p.isPunct(";") {
			var err error
			val, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &SendStmt{Chan: ch.text, Value: val, Line: t.line}, nil
	case t.kind == tIdent && t.text == "return":
		p.bump()
		var x Expr
		if !p.isPunct(";") {
			var err error
			x, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{x, t.line}, nil
	case t.kind == tIdent && typeNames[t.text]:
		// Declaration: type name [= expr] ;
		if err := p.skipTypeTokens(); err != nil {
			return nil, err
		}
		name, err := p.ident("variable name")
		if err != nil {
			return nil, err
		}
		var init Expr
		if p.isPunct("=") {
			p.bump()
			init, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &DeclStmt{name.text, init, t.line}, nil
	case t.kind == tIdent && p.peekIs("="):
		name := p.bump()
		p.bump() // =
		if p.isPunct("<-") {
			// x = <-ch; — a receive into x.
			p.bump()
			ch, err := p.ident("channel name")
			if err != nil {
				return nil, err
			}
			if _, err := p.punct(";"); err != nil {
				return nil, err
			}
			return &RecvStmt{Chan: ch.text, AssignTo: name.text, Line: t.line}, nil
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &AssignStmt{name.text, x, t.line}, nil
	case t.kind == tPunct && t.text == "*":
		// Store through a pointer: *name = expr;
		p.bump()
		name, err := p.ident("pointer name")
		if err != nil {
			return nil, err
		}
		if _, err := p.punct("="); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &StoreStmt{name.text, x, t.line}, nil
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{x, t.line}, nil
	}
}

func (p *parser) ifStmt() (Stmt, error) {
	line := p.bump().line // if
	if _, err := p.punct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.punct(")"); err != nil {
		return nil, err
	}
	thenS, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	var elseS []Stmt
	if p.cur().kind == tIdent && p.cur().text == "else" {
		p.bump()
		elseS, err = p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{cond, thenS, elseS, line}, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	line := p.bump().line // while
	if _, err := p.punct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.punct(")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: line}, nil
}

func (p *parser) doWhileStmt() (Stmt, error) {
	line := p.bump().line // do
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tIdent || t.text != "while" {
		return nil, p.errf(t, "expected 'while' after do-body")
	}
	p.bump()
	if _, err := p.punct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.punct(")"); err != nil {
		return nil, err
	}
	if _, err := p.punct(";"); err != nil {
		return nil, err
	}
	return &DoWhileStmt{Cond: cond, Body: body, Line: line}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	line := p.bump().line // for
	if _, err := p.punct("("); err != nil {
		return nil, err
	}
	f := &ForStmt{Line: line}
	// Init clause: a declaration or expression statement ending in ';'
	// (stmt() consumes the semicolon), or just ';'.
	if p.isPunct(";") {
		p.bump()
	} else {
		init, err := p.simpleClause()
		if err != nil {
			return nil, err
		}
		f.Init = init
		if _, err := p.punct(";"); err != nil {
			return nil, err
		}
	}
	if !p.isPunct(";") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if _, err := p.punct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.simpleClause()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if _, err := p.punct(")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// simpleClause parses a declaration, assignment, store or expression
// WITHOUT consuming a trailing semicolon (for for-clauses).
func (p *parser) simpleClause() (Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tIdent && typeNames[t.text]:
		if err := p.skipTypeTokens(); err != nil {
			return nil, err
		}
		name, err := p.ident("variable name")
		if err != nil {
			return nil, err
		}
		var init Expr
		if p.isPunct("=") {
			p.bump()
			init, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		return &DeclStmt{name.text, init, t.line}, nil
	case t.kind == tIdent && p.peekIs("="):
		name := p.bump()
		p.bump()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{name.text, x, t.line}, nil
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{x, t.line}, nil
	}
}

func (p *parser) switchStmt() (Stmt, error) {
	line := p.bump().line // switch
	if _, err := p.punct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.punct(")"); err != nil {
		return nil, err
	}
	if _, err := p.punct("{"); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{Cond: cond, Line: line}
	sawDefault := false
	for !p.isPunct("}") {
		t := p.cur()
		var c SwitchCase
		c.Line = t.line
		switch {
		case t.kind == tIdent && t.text == "case":
			p.bump()
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			c.Value = v
		case t.kind == tIdent && t.text == "default":
			if sawDefault {
				return nil, p.errf(t, "duplicate default case")
			}
			sawDefault = true
			p.bump()
			c.IsDefault = true
		default:
			return nil, p.errf(t, "expected 'case' or 'default' in switch")
		}
		if _, err := p.punct(":"); err != nil {
			return nil, err
		}
		for {
			t := p.cur()
			if p.isPunct("}") || (t.kind == tIdent && (t.text == "case" || t.text == "default")) {
				break
			}
			st, err := p.stmt()
			if err != nil {
				return nil, err
			}
			if st != nil {
				c.Body = append(c.Body, st)
			}
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.bump() // }
	return sw, nil
}

func (p *parser) stmtAsBlock() ([]Stmt, error) {
	st, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, nil
	}
	if b, ok := st.(*BlockStmt); ok {
		return b.Body, nil
	}
	return []Stmt{st}, nil
}

// Expression parsing: precedence climbing over a small operator set.

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(0) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tPunct {
			break
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			break
		}
		op := p.bump().text
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{op, lhs, rhs}
	}
	return lhs, nil
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.kind == tPunct && (t.text == "!" || t.text == "-" || t.text == "&" || t.text == "*") {
		p.bump()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{t.text, x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber:
		p.bump()
		return &NumExpr{t.text}, nil
	case tString:
		p.bump()
		return &StrExpr{t.text}, nil
	case tIdent:
		p.bump()
		if p.isPunct("(") {
			p.bump()
			var args []Expr
			if !p.isPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.isPunct(",") {
						p.bump()
						continue
					}
					break
				}
			}
			if _, err := p.punct(")"); err != nil {
				return nil, err
			}
			return &CallExpr{Name: t.text, Args: args, Line: t.line}, nil
		}
		return &IdentExpr{t.text}, nil
	case tPunct:
		if t.text == "(" {
			p.bump()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.punct(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf(t, "expected expression, found %q", t.text)
}
