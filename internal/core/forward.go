package core

import (
	"fmt"

	"rasc/internal/dfa"
	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// This file implements the forward unidirectional solving strategy of §5.
// A forward solver only pushes lower-bound sources toward upper-bound
// sinks; it cannot solve constraint fragments separately or online, but in
// exchange the annotations it derives for *constants* live in the coarser
// right congruence F_M^≡r — words are distinguished only by the state
// δ(w, s0) they reach — so each (constant, variable) pair carries at most
// |S| derived annotations instead of up to |F_M^≡| (which can be |S|^|S|,
// Figure 2). Queries only ever evaluate annotations at s0, so the quotient
// is lossless for entailment.
//
// Compound constructor sources still carry their segment's representative
// function, because the structural and projection rules must compose that
// segment onto component flows (the g ∘ f of §5, with g ∈ F_M^≡ from the
// original constraints and the result re-quotiented for constants).

// ForwardResult is the result of a forward solve.
type ForwardResult struct {
	sys *System
	mon *monoid.Monoid

	// kreach[v]: constant facts keyed by (constant node, DFA state).
	kreach []map[fwdConstKey]struct{}
	// creach[v]: compound facts keyed by (cons node, segment function).
	creach []map[reachKey]struct{}

	edges    []map[edge]struct{} // derived+original edges per source var
	outEdges [][]edge
	sinks    [][]sinkRef
	projs    [][]projRef

	clashes []Clash
	work    []fwdItem

	// demand restricts constant propagation to these nodes (nil = all).
	demand map[CNode]bool

	nFacts int
}

type fwdConstKey struct {
	cn CNode
	st dfa.State
}

type fwdItem struct {
	v     VarID
	cn    CNode
	isK   bool
	st    dfa.State     // constant facts
	f     monoid.FuncID // compound facts
	arity int
}

// SolveForward runs the forward unidirectional solver over the system's
// recorded constraints. It requires the FuncAlgebra (parametric
// substitution environments are only supported bidirectionally). demand,
// if non-nil, restricts constant propagation to the given constants
// (demand-driven solving, §5.1). The bidirectional solver's state is not
// consulted or modified.
func (s *System) SolveForward(demand []CNode) (*ForwardResult, error) {
	fa, ok := s.Alg.(FuncAlgebra)
	if !ok {
		return nil, fmt.Errorf("core: forward solving requires the representative-function algebra")
	}
	n := len(s.vars)
	r := &ForwardResult{
		sys:      s,
		mon:      fa.Mon,
		kreach:   make([]map[fwdConstKey]struct{}, n),
		creach:   make([]map[reachKey]struct{}, n),
		edges:    make([]map[edge]struct{}, n),
		outEdges: make([][]edge, n),
		sinks:    make([][]sinkRef, n),
		projs:    make([][]projRef, n),
	}
	if demand != nil {
		r.demand = make(map[CNode]bool, len(demand))
		for _, cn := range demand {
			r.demand[cn] = true
		}
	}
	for i := range r.kreach {
		r.kreach[i] = map[fwdConstKey]struct{}{}
		r.creach[i] = map[reachKey]struct{}{}
		r.edges[i] = map[edge]struct{}{}
	}

	// Index the raw constraints.
	for _, rc := range s.raw {
		switch rc.kind {
		case rawVarVar:
			r.addEdge(rc.x, rc.y, rc.a)
		case rawUpper:
			r.sinks[rc.x] = append(r.sinks[rc.x], sinkRef{rc.cn, rc.a})
		case rawProj:
			r.projs[rc.x] = append(r.projs[rc.x], projRef{rc.cons, rc.idx, rc.y, rc.a})
		}
	}
	// Seeds last, so sinks/projections are in place (a forward solver
	// processes the whole constraint graph at once, §5.1).
	for _, rc := range s.raw {
		if rc.kind != rawLower {
			continue
		}
		if len(s.cons[rc.cn].args) == 0 {
			if r.demand == nil || r.demand[rc.cn] {
				r.addConst(rc.y, rc.cn, r.mon.Apply(monoid.FuncID(rc.a), r.mon.M.Start))
			}
		} else {
			r.addCons(rc.y, rc.cn, monoid.FuncID(rc.a))
		}
	}
	r.run()
	return r, nil
}

func (r *ForwardResult) addEdge(x, y VarID, a Annot) {
	e := edge{y, a}
	if _, dup := r.edges[x][e]; dup {
		return
	}
	r.edges[x][e] = struct{}{}
	r.outEdges[x] = append(r.outEdges[x], e)
	g := monoid.FuncID(a)
	for fk := range r.kreach[x] {
		r.addConst(y, fk.cn, r.mon.Apply(g, fk.st))
	}
	for ck := range r.creach[x] {
		r.addCons(y, ck.cn, r.mon.Then(monoid.FuncID(ck.a), g))
	}
}

func (r *ForwardResult) addConst(v VarID, cn CNode, st dfa.State) {
	if r.sys.opts.PruneDead && !r.mon.CoReachableState(st) {
		return // outside the prefix domain T^{M^pre}
	}
	k := fwdConstKey{cn, st}
	if _, dup := r.kreach[v][k]; dup {
		return
	}
	r.kreach[v][k] = struct{}{}
	r.nFacts++
	r.work = append(r.work, fwdItem{v: v, cn: cn, isK: true, st: st})
}

func (r *ForwardResult) addCons(v VarID, cn CNode, f monoid.FuncID) {
	if r.sys.opts.PruneDead && r.mon.Dead(f) {
		return
	}
	k := reachKey{cn, Annot(f)}
	if _, dup := r.creach[v][k]; dup {
		return
	}
	r.creach[v][k] = struct{}{}
	r.nFacts++
	r.work = append(r.work, fwdItem{v: v, cn: cn, f: f, arity: len(r.sys.cons[cn].args)})
}

func (r *ForwardResult) run() {
	s := r.sys
	for len(r.work) > 0 {
		it := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		out := r.outEdges[it.v]
		sinks := r.sinks[it.v]
		projs := r.projs[it.v]
		if it.isK {
			for _, e := range out {
				r.addConst(e.to, it.cn, r.mon.Apply(monoid.FuncID(e.a), it.st))
			}
			for _, sk := range sinks {
				if s.cons[sk.cn].cons != s.cons[it.cn].cons {
					r.clashes = append(r.clashes, Clash{it.cn, sk.cn, Annot(0)})
				}
			}
			// Constants have no components: projections don't apply.
			continue
		}
		for _, e := range out {
			r.addCons(e.to, it.cn, r.mon.Then(it.f, monoid.FuncID(e.a)))
		}
		cd := s.cons[it.cn]
		for _, sk := range sinks {
			dd := s.cons[sk.cn]
			h := r.mon.Then(it.f, monoid.FuncID(sk.a))
			if cd.cons != dd.cons {
				r.clashes = append(r.clashes, Clash{it.cn, sk.cn, Annot(h)})
				continue
			}
			for i := range cd.args {
				if s.Sig.VarianceOf(cd.cons, i) == terms.Contravariant {
					if h != r.mon.Identity() {
						r.clashes = append(r.clashes, Clash{it.cn, sk.cn, Annot(h)})
						continue
					}
					r.addEdge(dd.args[i], cd.args[i], Annot(h))
					continue
				}
				r.addEdge(cd.args[i], dd.args[i], Annot(h))
			}
		}
		for _, pr := range projs {
			if cd.cons == pr.cons {
				h := r.mon.Then(it.f, monoid.FuncID(pr.a))
				r.addEdge(cd.args[pr.idx], pr.to, Annot(h))
			}
		}
	}
}

// ConstStates returns the F_M^≡r classes (DFA states) with which constant
// cn reaches v.
func (r *ForwardResult) ConstStates(cn CNode, v VarID) []dfa.State {
	var out []dfa.State
	for k := range r.kreach[v] {
		if k.cn == cn {
			out = append(out, k.st)
		}
	}
	return out
}

// ConstEntailed reports whether the constant reaches v with a word in
// L(M): some reached state is accepting.
func (r *ForwardResult) ConstEntailed(cn CNode, v VarID) bool {
	for k := range r.kreach[v] {
		if k.cn == cn && r.mon.M.Accept[k.st] {
			return true
		}
	}
	return false
}

// Flows reports whether cn reaches v with any annotation.
func (r *ForwardResult) Flows(cn CNode, v VarID) bool {
	for k := range r.kreach[v] {
		if k.cn == cn {
			return true
		}
	}
	for k := range r.creach[v] {
		if k.cn == cn {
			return true
		}
	}
	return false
}

// Clashes returns the inconsistencies found during forward solving.
func (r *ForwardResult) Clashes() []Clash { return r.clashes }

// Facts returns the number of distinct derived facts, the solver-work
// measure compared across strategies in the §5 experiments.
func (r *ForwardResult) Facts() int { return r.nFacts }

// VarsWithConst answers the demand-driven query of §5.1: "for what set of
// variables must this constant appear in every solution?" — the variables
// cn reaches, in ascending order.
func (r *ForwardResult) VarsWithConst(cn CNode) []VarID {
	var out []VarID
	for v := range r.kreach {
		for k := range r.kreach[v] {
			if k.cn == cn {
				out = append(out, VarID(v))
				break
			}
		}
	}
	return out
}

// VarsWithConstAccepting restricts VarsWithConst to accepting occurrences
// (the constant is present with a word in L(M)).
func (r *ForwardResult) VarsWithConstAccepting(cn CNode) []VarID {
	var out []VarID
	for v := range r.kreach {
		for k := range r.kreach[v] {
			if k.cn == cn && r.mon.M.Accept[k.st] {
				out = append(out, VarID(v))
				break
			}
		}
	}
	return out
}
