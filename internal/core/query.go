package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// This file implements the query phase (§3.2). The solver does not
// materialize representative-function variables during resolution; queries
// reconstruct the needed function information from the composed path
// annotations stored in the reach tables.

// SourceFact is one entailed lower bound: constructor expression Cn is in
// the queried variable with composed annotation A.
type SourceFact struct {
	Cn CNode
	A  Annot
}

// SourcesAt returns all constructor expressions (with annotations) known
// to flow into v, in deterministic order. Solve must have been called.
func (s *System) SourcesAt(v VarID) []SourceFact {
	v = s.find(v)
	facts := s.vars[v].reach.facts
	out := make([]SourceFact, 0, len(facts))
	for i := range facts {
		out = append(out, SourceFact{facts[i].cn, facts[i].a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cn != out[j].Cn {
			return out[i].Cn < out[j].Cn
		}
		return out[i].A < out[j].A
	})
	return out
}

// ConstAnnots returns the annotations with which the constant cn is
// present in v (top level, fully matched flow only).
func (s *System) ConstAnnots(cn CNode, v VarID) []Annot {
	v = s.find(v)
	var out []Annot
	for _, f := range s.vars[v].reach.facts {
		if f.cn == cn {
			out = append(out, f.a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConstEntailed implements the simple entailment query of §3.2:
//
//	C ∧ f_ε ⊆ α ⊨ ⋁_{f ∈ F_accept} cn^α ⊆^f v
//
// which holds iff the constant reaches v with some accepting annotation.
func (s *System) ConstEntailed(cn CNode, v VarID) bool {
	for _, a := range s.ConstAnnots(cn, v) {
		if s.Alg.Accepting(a) {
			return true
		}
	}
	return false
}

// Flows reports whether constant cn reaches v at all (with any
// annotation, accepting or not) through fully matched flow. This is the
// matched label-flow query of §7.3.
func (s *System) Flows(cn CNode, v VarID) bool {
	v = s.find(v)
	for _, f := range s.vars[v].reach.facts {
		if f.cn == cn {
			return true
		}
	}
	return false
}

// --- PN reachability (§6.2) -------------------------------------------

// PNFact is one positive-negative reachability fact: the queried constant
// occurs (at any constructor depth) in variable V with total annotation A.
type PNFact struct {
	V VarID
	A Annot
}

// pnRec is one PN fact in one phase, with the step that first derived it.
type pnRec struct {
	v    VarID
	a    Annot
	from int32 // index of the record it was derived from; -1 for a seed
	via  CNode // constructor expression wrapped through; -1 otherwise
	// wrapped is set once the fact is inside an unmatched constructor
	// (phase P); pop marks an unmatched projection (N) step.
	wrapped, pop bool
}

// PNResult holds the result of a PN-reachability query for one constant.
//
// It stores its facts the way a reachSet does: a discovery-ordered record
// slice plus an open-addressed index over (variable, annotation, phase),
// so the query never hashes into a Go map. Each record names the record it
// was derived from, which makes a witness a walk over indices.
//
// A PNResult that PNReachInto fills again is a new result: what it held
// before is gone.
type PNResult struct {
	sys   *System
	cn    CNode
	recs  []pnRec
	table []int32 // power-of-two open addressing; record index + 1, 0 = empty
	order []PNFact
	// At's index, built on first use (empty until then): the sorted
	// annotations of representative v are annots[start[v]:start[v+1]].
	start  []int32
	annots []Annot

	// The query's scratch, kept for the next PNReachInto: projections
	// grouped by source, a fill cursor per group, the worklist.
	projAt, fill []int32
	projs        []edge
	work         []int32
}

// PNReach computes positive-negative reachability (§6.2, and [15]) for
// the constant cn: every (variable, annotation) at which the constant
// occurs, allowing partially matched call/return paths of the shape
// N*-matched-P*. Three step kinds combine:
//
//   - fully matched flow comes from the solved reach tables (the
//     projection rule already derived those edges);
//   - unmatched "returns" (N steps) let a top-level fact cross a
//     projection constraint c^-i(X) ⊆^g Z, after which it keeps
//     propagating along ordinary edges; once a fact wraps it may not take
//     further N steps (the N*M*P* discipline);
//   - unmatched "calls" (P steps) are wrap steps through constructor
//     expressions whose argument holds the constant, enumerated through
//     the expression's solved occurrences.
//
// The system must be solved first.
//
// PNReach is PNReachInto with no result to reuse.
func (s *System) PNReach(cn CNode) *PNResult { return s.PNReachInto(nil, cn) }

// PNReachInto is PNReach into r's storage: the records, their index, the
// discovery order, At's index and the query's scratch reuse the arrays r
// already holds where they are large enough. A nil r allocates a new
// result. Whatever r answered before is gone.
func (s *System) PNReachInto(r *PNResult, cn CNode) *PNResult {
	if r == nil {
		r = new(PNResult)
	}
	r.sys, r.cn = s, cn
	r.recs, r.order = r.recs[:0], r.order[:0]
	clear(r.table)
	r.start, r.annots = r.start[:0], r.annots[:0]
	// Projections over the raw constraints, grouped by the representative
	// of their source (the solver may have rerouted its own copies through
	// projection merging): those of x are projs[projAt[x]:projAt[x+1]].
	projAt := zeroed(r.projAt, len(s.vars)+1)
	for _, rc := range s.raw {
		if rc.kind == rawProj {
			projAt[s.find(rc.x)+1]++
		}
	}
	for i := 1; i < len(projAt); i++ {
		projAt[i] += projAt[i-1]
	}
	projs := sized(r.projs, int(projAt[len(s.vars)]))
	fill := append(r.fill[:0], projAt[:len(s.vars)]...)
	for _, rc := range s.raw {
		if rc.kind == rawProj {
			x := s.find(rc.x)
			projs[fill[x]] = edge{rc.y, rc.a}
			fill[x]++
		}
	}
	r.projAt, r.projs, r.fill = projAt, projs, fill
	work := r.work[:0] // record indices, popped last in first out
	add := func(v VarID, a Annot, wrapped bool, from int32, via CNode, pop bool) {
		if r.add(pnRec{s.find(v), a, from, via, wrapped, pop}) {
			work = append(work, int32(len(r.recs)-1))
		}
	}
	// Seed: top-level occurrences of the constant (phase N).
	for _, oc := range s.cons[cn].occur {
		add(oc.v, oc.a, false, -1, -1, false)
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		it := r.recs[i]
		if !it.wrapped {
			// N-phase: ordinary edges and unmatched projections.
			for _, e := range s.vars[it.v].out {
				add(e.to, s.Alg.Then(it.a, e.a), false, i, -1, false)
			}
			for _, p := range projs[projAt[it.v]:projAt[it.v+1]] {
				add(p.to, s.Alg.Then(it.a, p.a), false, i, -1, true)
			}
		}
		// Wrap steps (either phase; result is phase P).
		for _, use := range s.vars[it.v].argOf {
			for _, oc := range s.cons[use.cn].occur {
				add(oc.v, s.Alg.Then(it.a, oc.a), true, i, use.cn, false)
			}
		}
	}
	r.work = work
	return r
}

// sized returns buf with length n, in buf's array when its capacity
// suffices; the contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed is sized with every element zero.
func zeroed[T any](buf []T, n int) []T {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

// add records rec unless its (variable, annotation, phase) is already
// known, reporting whether it was new. A (variable, annotation) pair
// joins the discovery order when its first phase is recorded. Both phases
// of a pair hash alike, so one probe sequence answers both questions.
func (r *PNResult) add(rec pnRec) bool {
	twin := false
	if len(r.table) > 0 {
		mask := uint32(len(r.table) - 1)
		for i := reachHash(CNode(rec.v), rec.a) & mask; r.table[i] != 0; i = (i + 1) & mask {
			if f := &r.recs[r.table[i]-1]; f.v == rec.v && f.a == rec.a {
				if f.wrapped == rec.wrapped {
					return false
				}
				twin = true
			}
		}
	}
	if !twin {
		r.order = append(r.order, PNFact{rec.v, rec.a})
	}
	if 2*(len(r.recs)+1) > len(r.table) {
		r.grow()
	}
	r.recs = append(r.recs, rec)
	r.place(int32(len(r.recs)))
	return true
}

// place inserts the 1-based record index slot into the index.
func (r *PNResult) place(slot int32) {
	f := &r.recs[slot-1]
	mask := uint32(len(r.table) - 1)
	i := reachHash(CNode(f.v), f.a) & mask
	for r.table[i] != 0 {
		i = (i + 1) & mask
	}
	r.table[i] = slot
}

func (r *PNResult) grow() {
	n := 2 * len(r.table)
	if n == 0 {
		n = 64
	}
	r.table = make([]int32, n)
	for i := range r.recs {
		r.place(int32(i + 1))
	}
}

// At returns the annotations with which the constant occurs at v, in
// ascending order.
func (r *PNResult) At(v VarID) []Annot {
	if len(r.start) == 0 {
		r.indexVars()
	}
	v = r.sys.find(v)
	if int(v) >= len(r.start)-1 {
		return nil // a variable created after the query
	}
	lo, hi := r.start[v], r.start[v+1]
	if lo == hi {
		return nil
	}
	return r.annots[lo:hi:hi]
}

// indexVars builds At's index: the facts' annotations grouped by variable
// (counting sort over the discovery order), each group sorted.
func (r *PNResult) indexVars() {
	n := len(r.sys.vars)
	start := zeroed(r.start, n+1)
	for _, f := range r.order {
		start[f.V+1]++
	}
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	annots := sized(r.annots, len(r.order))
	fill := append(r.fill[:0], start[:n]...)
	for _, f := range r.order {
		annots[fill[f.V]] = f.A
		fill[f.V]++
	}
	for v := 0; v < n; v++ {
		if start[v+1]-start[v] > 1 {
			slices.Sort(annots[start[v]:start[v+1]])
		}
	}
	r.start, r.annots, r.fill = start, annots, fill
}

// AcceptingAt reports whether the constant occurs at v with an accepting
// annotation — for the model checker, a property violation at v.
func (r *PNResult) AcceptingAt(v VarID) (Annot, bool) {
	for _, a := range r.At(v) {
		if r.sys.Alg.Accepting(a) {
			return a, true
		}
	}
	return 0, false
}

// Accepting returns all facts with accepting annotations, in discovery
// order.
func (r *PNResult) Accepting() []PNFact {
	var out []PNFact
	for _, f := range r.order {
		if r.sys.Alg.Accepting(f.A) {
			out = append(out, f)
		}
	}
	return out
}

// Facts returns every PN fact in discovery order.
func (r *PNResult) Facts() []PNFact { return r.order }

// Trace reconstructs a witness for the fact (v, a): the chain of
// variables the constant moved through, from a seed constraint to v.
// Wrap steps appear with Wrapped set to the constructor expression.
func (r *PNResult) Trace(v VarID, a Annot) []TraceStep {
	i := r.lookup(r.sys.find(v), a)
	if i < 0 {
		return nil
	}
	var steps []TraceStep
	// Every record is derived from an earlier one, so the walk ends.
	for {
		f := &r.recs[i]
		steps = append(steps, TraceStep{Var: f.v, Annot: f.a, Wrapped: f.via, Popped: f.pop})
		if f.from < 0 {
			// Seed: continue through the reach-level witness (whose
			// first step repeats the current fact).
			if pre := r.sys.witness(f.v, r.cn, f.a); len(pre) > 1 {
				steps = append(steps, pre[1:]...)
			}
			break
		}
		i = f.from
	}
	reverse(steps)
	return steps
}

// lookup returns the index of the record for (v, a), preferring the
// unwrapped phase, or -1 when the query never derived the fact.
func (r *PNResult) lookup(v VarID, a Annot) int32 {
	found := int32(-1)
	if len(r.table) == 0 {
		return found
	}
	mask := uint32(len(r.table) - 1)
	for i := reachHash(CNode(v), a) & mask; r.table[i] != 0; i = (i + 1) & mask {
		if f := &r.recs[r.table[i]-1]; f.v == v && f.a == a {
			if !f.wrapped {
				return r.table[i] - 1
			}
			found = r.table[i] - 1
		}
	}
	return found
}

// TraceStep is one hop of a witness path.
type TraceStep struct {
	Var   VarID
	Annot Annot
	// Wrapped is the constructor expression wrapped through on this hop,
	// or -1 for plain flow.
	Wrapped CNode
	// Popped marks an unmatched projection (N) step.
	Popped bool
}

func reverse(s []TraceStep) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Witness reconstructs the variable chain along which cn first reached v
// with annotation a (top-level flow). Returns nil if the fact is
// unknown.
func (s *System) Witness(v VarID, cn CNode, a Annot) []TraceStep {
	steps := s.witness(s.find(v), cn, a)
	reverse(steps)
	return steps
}

// witness walks the reach parents of (cn, a) at v, newest step first.
func (s *System) witness(v VarID, cn CNode, a Annot) []TraceStep {
	var steps []TraceStep
	seen := map[varAnnot]bool{}
	for {
		k := varAnnot{v, a}
		if seen[k] {
			break
		}
		seen[k] = true
		p, ok := s.vars[v].reach.lookup(cn, a)
		if !ok {
			break
		}
		steps = append(steps, TraceStep{Var: v, Annot: a, Wrapped: -1})
		if p.step == stepSeed || p.fromVar < 0 {
			break
		}
		v, a = s.find(p.fromVar), p.annot
	}
	return steps
}

// --- Word-variable reconstruction and term enumeration ------------------

// RootAnnots reconstructs, at query time, the least solution of the
// representative-function constraints that eager resolution would have
// attached to constructor expressions (the f ∘ α ⊆ β of the structural
// rule, §3.1). The solver itself never materializes these variables (§3.2,
// §8); this pass replays the structural meets recorded in the reach tables
// to a fixed point.
//
// seeds lists the constructor expressions whose word variables are
// hypothesized to contain f_ε (the "f_ε ⊆ α" premises a query adds for the
// variables of the queried term). Expressions outside seeds contribute
// only their forced lower bounds.
func (s *System) RootAnnots(seeds []CNode) map[CNode]map[Annot]bool {
	res := make(map[CNode]map[Annot]bool)
	add := func(cn CNode, a Annot) bool {
		m := res[cn]
		if m == nil {
			m = make(map[Annot]bool)
			res[cn] = m
		}
		if m[a] {
			return false
		}
		m[a] = true
		return true
	}
	for _, cn := range seeds {
		add(cn, s.Alg.Identity())
	}
	for changed := true; changed; {
		changed = false
		for v := range s.vars {
			vd := &s.vars[VarID(v)]
			if vd.uf != VarID(v) || len(vd.sinks) == 0 {
				continue
			}
			for _, sk := range vd.sinks {
				for _, f := range vd.reach.facts {
					if s.cons[f.cn].cons != s.cons[sk.cn].cons {
						continue
					}
					h := s.Alg.Then(f.a, sk.a)
					for w := range res[f.cn] {
						if add(sk.cn, s.Alg.Then(w, h)) {
							changed = true
						}
					}
				}
			}
		}
	}
	return res
}

// LowerNodes returns every constructor expression that occurs on the
// left-hand side of a lower-bound constraint: the default f_ε seed set for
// term enumeration.
func (s *System) LowerNodes() []CNode {
	seen := make(map[CNode]bool)
	var out []CNode
	for _, rc := range s.raw {
		if rc.kind == rawLower && !seen[rc.cn] {
			seen[rc.cn] = true
			out = append(out, rc.cn)
		}
	}
	return out
}

// TermsIn enumerates the annotated ground terms in the least solution of
// v with every lower-bound expression's word variable seeded with f_ε, up
// to the given constructor depth and capped at limit terms (0 = no cap).
// See TermsInSeeded for the seed-controlled variant.
func (s *System) TermsIn(v VarID, bank *terms.Bank, maxDepth, limit int) []terms.TermID {
	return s.TermsInSeeded(v, bank, maxDepth, limit, s.LowerNodes())
}

// TermsInSeeded enumerates the terms of v's least solution under the
// query hypothesis f_ε ⊆ α for the word variables of the seed
// expressions. A term c^w(t1,…,tn) is in v when some reach fact
// (c(X1,…,Xn), f) holds at v with w = w0·f for a root annotation w0 of
// the expression, and ti = ui·f for ui in the least solution of Xi.
// The result is hash-consed: intersecting two variables' term sets is set
// intersection on TermIDs, which is how stack-aware alias queries (§7.5)
// are answered.
func (s *System) TermsInSeeded(v VarID, bank *terms.Bank, maxDepth, limit int, seeds []CNode) []terms.TermID {
	roots := s.RootAnnots(seeds)
	set := map[terms.TermID]bool{}
	s.termsIn(s.find(v), bank, maxDepth, limit, roots, set)
	out := make([]terms.TermID, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *System) termsIn(v VarID, bank *terms.Bank, depth, limit int,
	roots map[CNode]map[Annot]bool, acc map[terms.TermID]bool) {
	if depth <= 0 {
		return
	}
	fa, isFunc := s.Alg.(FuncAlgebra)
	for _, rf := range s.vars[v].reach.facts {
		k := reachKey{rf.cn, rf.a}
		if limit > 0 && len(acc) >= limit {
			return
		}
		cd := s.cons[k.cn]
		// Argument term sets, each extended by this fact's path
		// annotation (the ·w operation applies at every level).
		argSets := make([][]terms.TermID, len(cd.args))
		feasible := true
		for i, av := range cd.args {
			sub := map[terms.TermID]bool{}
			s.termsIn(s.find(av), bank, depth-1, limit, roots, sub)
			if len(sub) == 0 {
				feasible = false
				break
			}
			for t := range sub {
				if isFunc {
					t = bank.Append(t, toFuncID(k.a), fa.Mon)
				}
				argSets[i] = append(argSets[i], t)
			}
			sort.Slice(argSets[i], func(x, y int) bool { return argSets[i][x] < argSets[i][y] })
		}
		if !feasible {
			continue
		}
		for w := range roots[k.cn] {
			root := s.Alg.Then(w, k.a)
			if !isFunc {
				root = 0
			}
			combine(bank, cd.cons, toFuncID(root), argSets, nil, acc, limit)
		}
	}
}

// EntailedTermIn reports the general entailment query of §3.2 for a
// ground term: whether t (interned in bank over the same signature and
// monoid) is in every solution of v, under f_ε seeds for the given
// expressions. maxDepth bounds the search to t's own depth.
func (s *System) EntailedTermIn(t terms.TermID, v VarID, bank *terms.Bank, seeds []CNode) bool {
	depth := bank.Depth(t)
	for _, got := range s.TermsInSeeded(v, bank, depth, 0, seeds) {
		if got == t {
			return true
		}
	}
	return false
}

func toFuncID(a Annot) monoid.FuncID { return monoid.FuncID(a) }

func combine(bank *terms.Bank, c terms.ConsID, annot monoid.FuncID, argSets [][]terms.TermID,
	picked []terms.TermID, acc map[terms.TermID]bool, limit int) {
	if limit > 0 && len(acc) >= limit {
		return
	}
	if len(picked) == len(argSets) {
		acc[bank.MustMk(c, annot, picked...)] = true
		return
	}
	for _, t := range argSets[len(picked)] {
		combine(bank, c, annot, argSets, append(picked, t), acc, limit)
	}
}

// HeadAnnots implements the general form of the §3.2 query: the
// annotations with which any constructor expression headed by c flows
// into v (used e.g. to search for terms denoting errors when checking
// finite state properties). Constants are the special case where the
// expression is unique.
func (s *System) HeadAnnots(c terms.ConsID, v VarID) []Annot {
	v = s.find(v)
	set := map[Annot]bool{}
	for _, f := range s.vars[v].reach.facts {
		if s.cons[f.cn].cons == c {
			set[f.a] = true
		}
	}
	out := make([]Annot, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HeadEntailed reports whether some c-headed expression is in v with an
// accepting annotation.
func (s *System) HeadEntailed(c terms.ConsID, v VarID) bool {
	for _, a := range s.HeadAnnots(c, v) {
		if s.Alg.Accepting(a) {
			return true
		}
	}
	return false
}

// DOT renders the solved constraint graph in Graphviz dot format:
// variables as ellipses (merged representatives folded together),
// constructor expressions as boxes, annotated edges labelled with their
// annotation. Intended for small systems; large graphs are unreadable.
func (s *System) DOT(name string) string {
	var b strings.Builder
	if name == "" {
		name = "constraints"
	}
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	ident := s.Alg.Identity()
	lbl := func(a Annot) string {
		if a == ident {
			return ""
		}
		return s.Alg.String(a)
	}
	for v := range s.vars {
		if s.find(VarID(v)) != VarID(v) {
			continue
		}
		fmt.Fprintf(&b, "  v%d [label=%q];\n", v, s.VarName(VarID(v)))
		for _, e := range s.vars[v].out {
			fmt.Fprintf(&b, "  v%d -> v%d [label=%q];\n", v, int(s.find(e.to)), lbl(e.a))
		}
		for _, sk := range s.vars[v].sinks {
			fmt.Fprintf(&b, "  v%d -> c%d [label=%q, style=dashed];\n", v, int(sk.cn), lbl(sk.a))
		}
		for _, pr := range s.vars[v].projs {
			fmt.Fprintf(&b, "  v%d -> v%d [label=\"%s^-%d %s\", style=dotted];\n",
				v, int(s.find(pr.to)), s.Sig.Name(pr.cons), pr.idx+1, lbl(pr.a))
		}
	}
	for cn := range s.cons {
		fmt.Fprintf(&b, "  c%d [label=%q, shape=box];\n", cn, s.ConsString(CNode(cn)))
		for _, arg := range s.cons[cn].args {
			fmt.Fprintf(&b, "  v%d -> c%d [style=dashed, arrowhead=none];\n", int(s.find(arg)), cn)
		}
	}
	// Seed constraints (lower bounds).
	for _, rc := range s.raw {
		if rc.kind == rawLower {
			fmt.Fprintf(&b, "  c%d -> v%d [label=%q];\n", int(rc.cn), int(s.find(rc.y)), lbl(rc.a))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
