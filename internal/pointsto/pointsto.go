// Package pointsto implements a field-insensitive, flow-insensitive
// Andersen-style points-to analysis for mini-C as a set-constraint
// problem — the representative application class the paper cites in §1
// ([26], and BANSHEE's own points-to analyses) — together with the
// stack-aware alias refinement of §7.5.
//
// The encoding is the classic one:
//
//	x = &y     ref(loc_y, PT(y), PT(y)) ⊆ PT(x)
//	x = y      PT(y) ⊆ PT(x)
//	x = *p     ref^-2(PT(p)) ⊆ PT(x)          (the covariant "get" side)
//	*p = y     PT(p) ⊆ ref(_, _, PT(y))       (the contravariant "set" side)
//
// where ref's third argument is contravariant: the structural rule then
// derives PT(y) ⊆ PT(l) for every location l that p may point to —
// exactly the store semantics, with no special-case code in the solver.
//
// In parallel, the analysis tracks context terms CT(x): copies of the
// address flows in which every call site wraps values in a unary
// constructor o_site (the §7.5 encoding). When a variable's context terms
// cover its points-to set (no flow passed through memory), alias queries
// can intersect the term sets instead of the location sets, recovering
// call-stack sensitivity for free.
package pointsto

import (
	"fmt"
	"sort"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/terms"
)

// Result is a solved points-to analysis.
type Result struct {
	Sys  *core.System
	Sig  *terms.Signature
	Bank *terms.Bank

	prog    *minic.Program
	refCons terms.ConsID
	unknown terms.ConsID
	pt      map[string]core.VarID // qualified "fn.var" -> PT variable
	ct      map[string]core.VarID // qualified -> context-term variable
	locCons map[string]terms.ConsID
	locName map[terms.ConsID]string
	nextTmp int

	unknownPN *core.PNResult // lazy cache for hasUnknown
}

// Analyze runs the analysis on a parsed program.
func Analyze(prog *minic.Program, opts core.Options) (*Result, error) {
	sig := terms.NewSignature()
	r := &Result{
		Sig:     sig,
		prog:    prog,
		pt:      map[string]core.VarID{},
		ct:      map[string]core.VarID{},
		locCons: map[string]terms.ConsID{},
		locName: map[terms.ConsID]string{},
	}
	var err error
	r.refCons, err = sig.DeclareVariance("ref", 3,
		[]terms.Variance{terms.Covariant, terms.Covariant, terms.Contravariant})
	if err != nil {
		return nil, err
	}
	r.unknown = sig.MustDeclare("unknown", 0)
	r.Sys = core.NewSystem(core.TrivialAlgebra{}, sig, opts)
	r.Bank = terms.NewBank(sig)

	for _, fd := range prog.Funcs {
		for _, st := range fd.Body {
			if err := r.stmt(fd.Name, st); err != nil {
				return nil, err
			}
		}
	}
	r.Sys.Solve()
	return r, nil
}

// MustAnalyze panics on error.
func MustAnalyze(prog *minic.Program, opts core.Options) *Result {
	r, err := Analyze(prog, opts)
	if err != nil {
		panic(err)
	}
	return r
}

func qualify(fn, v string) string { return fn + "." + v }

func (r *Result) ptVar(fn, v string) core.VarID {
	q := qualify(fn, v)
	if x, ok := r.pt[q]; ok {
		return x
	}
	x := r.Sys.Var("PT(" + q + ")")
	r.pt[q] = x
	return x
}

func (r *Result) ctVar(fn, v string) core.VarID {
	q := qualify(fn, v)
	if x, ok := r.ct[q]; ok {
		return x
	}
	x := r.Sys.Var("CT(" + q + ")")
	r.ct[q] = x
	return x
}

func (r *Result) loc(fn, v string) terms.ConsID {
	q := qualify(fn, v)
	if c, ok := r.locCons[q]; ok {
		return c
	}
	c := r.Sig.MustDeclare("loc:"+q, 0)
	r.locCons[q] = c
	r.locName[c] = q
	return c
}

func (r *Result) tmp(fn string) (core.VarID, core.VarID) {
	r.nextTmp++
	name := fmt.Sprintf("$t%d", r.nextTmp)
	return r.ptVar(fn, name), r.ctVar(fn, name)
}

func (r *Result) stmt(fn string, st minic.Stmt) error {
	switch s := st.(type) {
	case *minic.DeclStmt:
		if s.Init != nil {
			return r.assign(fn, s.Name, s.Init)
		}
		return nil
	case *minic.AssignStmt:
		return r.assign(fn, s.Name, s.X)
	case *minic.StoreStmt:
		// *p = e: PT(p) ⊆ ref(_, _, rhs).
		pt, ct, err := r.eval(fn, s.X)
		if err != nil {
			return err
		}
		_ = ct // stores pass through memory: loads mark unknown
		w1 := r.Sys.Fresh("wild")
		w2 := r.Sys.Fresh("wild")
		r.Sys.AddUpperE(r.ptVar(fn, s.Name), r.Sys.Cons(r.refCons, w1, w2, pt))
		return nil
	case *minic.ExprStmt:
		_, _, err := r.eval(fn, s.X)
		return err
	case *minic.ReturnStmt:
		if s.X != nil {
			return r.assign(fn, "$ret", s.X)
		}
		return nil
	case *minic.IfStmt:
		for _, body := range [][]minic.Stmt{s.Then, s.Else} {
			for _, st := range body {
				if err := r.stmt(fn, st); err != nil {
					return err
				}
			}
		}
		return nil
	case *minic.WhileStmt:
		for _, st := range s.Body {
			if err := r.stmt(fn, st); err != nil {
				return err
			}
		}
		return nil
	case *minic.BlockStmt:
		for _, st := range s.Body {
			if err := r.stmt(fn, st); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

func (r *Result) assign(fn, name string, e minic.Expr) error {
	pt, ct, err := r.eval(fn, e)
	if err != nil {
		return err
	}
	r.Sys.AddVarE(pt, r.ptVar(fn, name))
	r.Sys.AddVarE(ct, r.ctVar(fn, name))
	return nil
}

// eval returns the (PT, CT) variables holding the value of e.
func (r *Result) eval(fn string, e minic.Expr) (core.VarID, core.VarID, error) {
	switch x := e.(type) {
	case *minic.IdentExpr:
		return r.ptVar(fn, x.Name), r.ctVar(fn, x.Name), nil
	case *minic.NumExpr, *minic.StrExpr:
		pt, ct := r.tmp(fn)
		return pt, ct, nil
	case *minic.UnaryExpr:
		switch x.Op {
		case "&":
			id, ok := x.X.(*minic.IdentExpr)
			if !ok {
				return 0, 0, fmt.Errorf("pointsto: &%s unsupported (only &variable)", x.X.Render())
			}
			pt, ct := r.tmp(fn)
			lc := r.loc(fn, id.Name)
			inner := r.ptVar(fn, id.Name)
			r.Sys.AddLowerE(r.Sys.Cons(r.refCons, r.lbox(lc), inner, inner), pt)
			r.Sys.AddLowerE(r.Sys.Constant(lc), ct)
			return pt, ct, nil
		case "*":
			ipt, _, err := r.eval(fn, x.X)
			if err != nil {
				return 0, 0, err
			}
			pt, ct := r.tmp(fn)
			r.Sys.AddProjE(r.refCons, 1, ipt, pt) // the covariant "get" side
			// Loads pass through memory: the context terms are unknown.
			r.Sys.AddLowerE(r.Sys.Constant(r.unknown), ct)
			return pt, ct, nil
		default:
			return r.eval(fn, x.X)
		}
	case *minic.BinExpr:
		// Pointer arithmetic etc.: both operands may flow.
		pt, ct := r.tmp(fn)
		for _, side := range []minic.Expr{x.L, x.R} {
			spt, sct, err := r.eval(fn, side)
			if err != nil {
				return 0, 0, err
			}
			r.Sys.AddVarE(spt, pt)
			r.Sys.AddVarE(sct, ct)
		}
		return pt, ct, nil
	case *minic.CallExpr:
		fd, defined := r.prog.Callee(x)
		if !defined {
			// External call: no pointer effects tracked.
			pt, ct := r.tmp(fn)
			for _, a := range x.Args {
				if _, _, err := r.eval(fn, a); err != nil {
					return 0, 0, err
				}
			}
			return pt, ct, nil
		}
		site := fmt.Sprintf("o@%s:%d", x.Name, x.Line)
		oc := r.Sig.MustDeclare(site, 1)
		for i, a := range x.Args {
			apt, act, err := r.eval(fn, a)
			if err != nil {
				return 0, 0, err
			}
			if i < len(fd.Params) {
				// PT: context-insensitive copy; CT: wrapped per site (§7.5).
				r.Sys.AddVarE(apt, r.ptVar(fd.Name, fd.Params[i]))
				r.Sys.AddLowerE(r.Sys.Cons(oc, act), r.ctVar(fd.Name, fd.Params[i]))
			}
		}
		pt, ct := r.tmp(fn)
		r.Sys.AddVarE(r.ptVar(fd.Name, "$ret"), pt)
		r.Sys.AddProjE(oc, 0, r.ctVar(fd.Name, "$ret"), ct)
		return pt, ct, nil
	}
	pt, ct := r.tmp(fn)
	return pt, ct, nil
}

// lbox returns a variable holding exactly the location constant, used as
// ref's identity component.
func (r *Result) lbox(lc terms.ConsID) core.VarID {
	v := r.Sys.Var("LOC(" + r.locName[lc] + ")")
	r.Sys.AddLowerE(r.Sys.Constant(lc), v)
	return v
}

// PointsTo returns the names of the locations variable fn.v may point to,
// sorted.
func (r *Result) PointsTo(fn, v string) []string {
	q := qualify(fn, v)
	x, ok := r.pt[q]
	if !ok {
		return nil
	}
	var out []string
	for _, f := range r.Sys.SourcesAt(x) {
		cd := r.Sys.ConsOf(f.Cn)
		if cd == r.refCons {
			// The identity component names the location.
			idVar := r.Sys.ArgsOf(f.Cn)[0]
			for _, lf := range r.Sys.SourcesAt(idVar) {
				if name, ok := r.locName[r.Sys.ConsOf(lf.Cn)]; ok {
					out = append(out, name)
				}
			}
		}
	}
	sort.Strings(out)
	return dedup(out)
}

func dedup(ss []string) []string {
	var out []string
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// MayAlias is the classic location-intersection query.
func (r *Result) MayAlias(fn1, v1, fn2, v2 string) bool {
	a := r.PointsTo(fn1, v1)
	b := map[string]bool{}
	for _, l := range r.PointsTo(fn2, v2) {
		b[l] = true
	}
	for _, l := range a {
		if b[l] {
			return true
		}
	}
	return false
}

// MayAliasStackAware refines MayAlias with the §7.5 term-intersection
// query: when both variables' address flows avoided memory (no "unknown"
// context), the call-stack-annotated term sets are intersected instead of
// the location sets. Falls back to MayAlias otherwise (sound).
func (r *Result) MayAliasStackAware(fn1, v1, fn2, v2 string) bool {
	if !r.MayAlias(fn1, v1, fn2, v2) {
		return false
	}
	c1, ok1 := r.ct[qualify(fn1, v1)]
	c2, ok2 := r.ct[qualify(fn2, v2)]
	if !ok1 || !ok2 || r.hasUnknown(c1) || r.hasUnknown(c2) {
		return true // memory flows involved: keep the location answer
	}
	t1 := r.Sys.TermsIn(c1, r.Bank, 8, 4096)
	set := map[terms.TermID]bool{}
	for _, t := range t1 {
		set[t] = true
	}
	for _, t := range r.Sys.TermsIn(c2, r.Bank, 8, 4096) {
		if set[t] {
			return true
		}
	}
	return false
}

func (r *Result) hasUnknown(v core.VarID) bool {
	// The unknown marker may sit inside call-site wrappers: check at any
	// constructor depth with PN reachability.
	if r.unknownPN == nil {
		r.unknownPN = r.Sys.PNReach(r.Sys.Constant(r.unknown))
	}
	return len(r.unknownPN.At(v)) > 0
}
