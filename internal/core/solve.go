package core

import (
	"slices"

	"rasc/internal/terms"
)

// AddVar adds the constraint x ⊆^a y.
func (s *System) AddVar(x, y VarID, a Annot) {
	s.raw = append(s.raw, rawConstraint{kind: rawVarVar, x: x, y: y, a: a})
	s.addEdge(s.find(x), s.find(y), a)
}

// AddVarE adds the unannotated constraint x ⊆ y.
func (s *System) AddVarE(x, y VarID) { s.AddVar(x, y, s.Alg.Identity()) }

// AddLower adds the constraint cn ⊆^a y (a constructed lower bound).
func (s *System) AddLower(cn CNode, y VarID, a Annot) {
	s.raw = append(s.raw, rawConstraint{kind: rawLower, cn: cn, y: y, a: a})
	s.addReach(s.find(y), cn, a, parent{fromVar: -1, step: stepSeed})
}

// AddLowerE adds cn ⊆ y.
func (s *System) AddLowerE(cn CNode, y VarID) { s.AddLower(cn, y, s.Alg.Identity()) }

// AddUpper adds the constraint x ⊆^a cn (a constructed upper bound).
func (s *System) AddUpper(x VarID, cn CNode, a Annot) {
	s.raw = append(s.raw, rawConstraint{kind: rawUpper, x: x, cn: cn, a: a})
	x = s.find(x)
	sk := sinkRef{cn, a}
	if slices.Contains(s.vars[x].sinks, sk) {
		return
	}
	s.vars[x].sinks = append(s.vars[x].sinks, sk)
	// Meet with sources already known to reach x. Snapshot the fact list:
	// a meet may derive new facts at x, and those are propagated to this
	// sink when their own work items drain.
	facts := s.vars[x].reach.facts
	// Compositions are counted per batch, not per call: wrapping Alg.Then
	// in a counting helper pushes it past the inlining budget and costs a
	// call frame per composition even with metrics off.
	if m := s.metrics; m != nil {
		m.Compositions.Add(int64(len(facts)))
	}
	for i := range facts {
		s.meet(facts[i].cn, s.Alg.Then(facts[i].a, a), cn)
	}
}

// AddUpperE adds x ⊆ cn.
func (s *System) AddUpperE(x VarID, cn CNode) { s.AddUpper(x, cn, s.Alg.Identity()) }

// AddConsCons adds the constraint l ⊆^a r between two constructor
// expressions. It is decomposed through a fresh variable
// (l ⊆^a W, W ⊆ r), which has the same solutions, resolves immediately
// through the structural rule, and keeps the recorded constraint system
// in the form the unidirectional solvers consume.
func (s *System) AddConsCons(l, r CNode, a Annot) {
	w := s.Fresh("conscons")
	s.AddLower(l, w, a)
	s.AddUpperE(w, r)
}

// AddProj adds the projection constraint c^-idx(x) ⊆^a z.
func (s *System) AddProj(c terms.ConsID, idx int, x, z VarID, a Annot) {
	if idx < 0 || idx >= s.Sig.Arity(c) {
		panic("core: projection index out of range")
	}
	if s.Sig.VarianceOf(c, idx) == terms.Contravariant {
		panic("core: projection on a contravariant argument")
	}
	s.raw = append(s.raw, rawConstraint{kind: rawProj, cons: c, idx: idx, x: x, y: z, a: a})
	x, z = s.find(x), s.find(z)

	if !s.opts.NoProjMerge {
		// Projection merging: all projections of (x, c, idx) share one
		// intermediate variable, so each source reaching x fires the
		// projection rule once instead of once per sink.
		if s.vars[x].projMerge == nil {
			s.vars[x].projMerge = make(map[projMergeKey]VarID)
		}
		key := projMergeKey{c, idx}
		w, ok := s.vars[x].projMerge[key]
		if !ok {
			w = s.Fresh("projmerge")
			s.vars[x].projMerge[key] = w
			s.addProjDirect(x, projRef{c, idx, w, s.Alg.Identity()})
		}
		s.addEdge(s.find(w), z, a)
		return
	}
	s.addProjDirect(x, projRef{c, idx, z, a})
}

// AddProjE adds c^-idx(x) ⊆ z.
func (s *System) AddProjE(c terms.ConsID, idx int, x, z VarID) {
	s.AddProj(c, idx, x, z, s.Alg.Identity())
}

func (s *System) addProjDirect(x VarID, pr projRef) {
	x = s.find(x)
	if slices.Contains(s.vars[x].projs, pr) {
		return
	}
	s.vars[x].projs = append(s.vars[x].projs, pr)
	facts := s.vars[x].reach.facts
	m := s.metrics
	for i := range facts {
		if s.cons[facts[i].cn].cons == pr.cons {
			if m != nil {
				m.Compositions.Inc()
			}
			s.addEdge(s.find(s.cons[facts[i].cn].args[pr.idx]), s.find(pr.to), s.Alg.Then(facts[i].a, pr.a))
		}
	}
}

// addEdge inserts the (representative-level) edge x ⊆^a y, propagating
// sources already reaching x and running cycle elimination on ε edges.
func (s *System) addEdge(x, y VarID, a Annot) {
	if s.opts.PruneDead && s.Alg.Dead(a) {
		return
	}
	x, y = s.find(x), s.find(y)
	ident := a == s.Alg.Identity()
	if x == y && ident {
		return
	}
	e := edge{y, a}
	if slices.Contains(s.vars[x].out, e) {
		return
	}
	s.vars[x].out = append(s.vars[x].out, e)
	s.nEdges++
	facts := s.vars[x].reach.facts
	if m := s.metrics; m != nil {
		m.EdgesAdded.Inc()
		m.Compositions.Add(int64(len(facts)))
	}

	for i := range facts {
		s.addReach(y, facts[i].cn, s.Alg.Then(facts[i].a, a), parent{fromVar: x, annot: facts[i].a, step: stepEdge})
	}

	if ident && !s.opts.NoCycleElim {
		s.tryCollapse(x, y)
	}
}

// cycleBudget bounds the depth-first search that looks for an ε-cycle on
// edge insertion: it pops at most this many variables.
const cycleBudget = 64

// tryCollapse looks for an ε-path from y back to x (bounded DFS); if one
// exists, the whole cycle is collapsed into one representative. The DFS
// runs over epoch-stamped scratch arrays kept on the System, and the
// path is collected in an array on this frame, so cycle checks and
// collapses allocate nothing in steady state. A union below may re-enter
// tryCollapse, which then collects its path in an array of its own.
func (s *System) tryCollapse(x, y VarID) {
	x, y = s.find(x), s.find(y)
	if x == y {
		return
	}
	if len(s.dfsMark) < len(s.vars) {
		mark := make([]uint32, 2*len(s.vars))
		copy(mark, s.dfsMark)
		s.dfsMark = mark
		prev := make([]VarID, 2*len(s.vars))
		copy(prev, s.dfsPrev)
		s.dfsPrev = prev
	}
	s.dfsEpoch++
	if s.dfsEpoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(s.dfsMark)
		s.dfsEpoch = 1
	}
	epoch := s.dfsEpoch
	visit := func(v, from VarID) {
		s.dfsMark[v] = epoch
		s.dfsPrev[v] = from
	}
	seen := func(v VarID) bool { return s.dfsMark[v] == epoch }

	ident := s.Alg.Identity()
	budget := cycleBudget
	stack := s.dfsStack[:0]
	visit(y, y)
	stack = append(stack, y)
	found := false
	for len(stack) > 0 && budget > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		budget--
		for _, e := range s.vars[v].out {
			if e.a != ident {
				continue
			}
			t := s.find(e.to)
			if t == x {
				visit(x, v)
				found = true
				stack = stack[:0]
				break
			}
			if !seen(t) {
				visit(t, v)
				stack = append(stack, t)
			}
		}
	}
	s.dfsStack = stack[:0]
	if !found {
		return
	}
	// Collapse the path y → … → x (plus the new edge x → y) into x. Every
	// variable on it was popped by the search, so it fits the budget.
	var buf [cycleBudget]VarID
	cycle := buf[:0]
	for v := s.dfsPrev[x]; ; v = s.dfsPrev[v] {
		cycle = append(cycle, v)
		if v == y {
			break
		}
	}
	for _, v := range cycle {
		s.union(x, v)
	}
}

// union merges loser into winner, replaying the loser's constraints and
// facts on the representative.
func (s *System) union(winner, loser VarID) {
	winner, loser = s.find(winner), s.find(loser)
	if winner == loser {
		return
	}
	s.nCollapsed++
	if m := s.metrics; m != nil {
		m.CycleElims.Inc()
	}
	// Detach the loser's state first so replay sees the merged var. The
	// loser keeps its arrays and its projection-merge map, emptied, for a
	// later fork into this System to refill; the replay reads them
	// through ld undisturbed, since every write goes to a representative.
	ld := s.vars[loser]
	s.vars[loser].out = ld.out[:0]
	s.vars[loser].sinks = ld.sinks[:0]
	s.vars[loser].projs = ld.projs[:0]
	s.vars[loser].reach = reachSet{facts: ld.reach.facts[:0], table: ld.reach.table[:0]}
	s.vars[loser].uf = winner

	// Every replay below can re-enter union through cycle elimination
	// (addEdge → tryCollapse) and merge the winner itself into yet
	// another representative. Writes to a detached variable are invisible
	// to the solver, so each block re-resolves the live representative
	// before mutating it.
	for _, e := range ld.out {
		s.addEdge(winner, s.find(e.to), e.a)
	}
	for _, sk := range ld.sinks {
		w := s.find(winner)
		if !slices.Contains(s.vars[w].sinks, sk) {
			s.vars[w].sinks = append(s.vars[w].sinks, sk)
			facts := s.vars[w].reach.facts
			if m := s.metrics; m != nil {
				m.Compositions.Add(int64(len(facts)))
			}
			for i := range facts {
				s.meet(facts[i].cn, s.Alg.Then(facts[i].a, sk.a), sk.cn)
			}
		}
	}
	for _, pr := range ld.projs {
		s.addProjDirect(winner, pr)
	}
	for i := range ld.reach.facts {
		f := ld.reach.facts[i]
		p := f.par
		if p.step != stepSeed && p.fromVar >= 0 {
			p = parent{fromVar: p.fromVar, annot: p.annot, step: stepMerged}
		}
		s.addReach(winner, f.cn, f.a, p)
	}
	for key, w := range ld.projMerge {
		rw := s.find(winner)
		if s.vars[rw].projMerge == nil {
			s.vars[rw].projMerge = make(map[projMergeKey]VarID)
		}
		if _, exists := s.vars[rw].projMerge[key]; !exists {
			s.vars[rw].projMerge[key] = w
		}
	}
	clear(ld.projMerge) // the loser's map, replayed
	// Constructor-argument occurrences must follow the representative so
	// that PN-reachability wrap steps see them.
	rw := s.find(winner)
	s.vars[rw].argOf = append(s.vars[rw].argOf, ld.argOf...)
	s.vars[loser].argOf = ld.argOf[:0]
}

// addReach records that constructor expression cn reaches v with composed
// annotation a, and schedules rule application.
func (s *System) addReach(v VarID, cn CNode, a Annot, par parent) {
	if s.opts.PruneDead && s.Alg.Dead(a) {
		return
	}
	v = s.find(v)
	if !s.vars[v].reach.insert(cn, a, par) {
		return
	}
	s.nReach++
	s.cons[cn].occur = append(s.cons[cn].occur, varAnnot{v, a})
	s.work = append(s.work, workItem{v, cn, a})
	if m := s.metrics; m != nil {
		m.ReachInserts.Inc()
		m.WorklistPushes.Inc()
		m.WorklistHigh.SetMax(int64(len(s.work)))
	}
}

// meet applies the structural/clash rule to a flow src ⊆^h dst between
// constructor expressions. Covariant components flow forward with the
// composed annotation; contravariant components (Banshee-style, e.g. the
// "set" side of a points-to ref) flow backward. The annotated semantics
// (§2.3) does not define appending a word to a contravariant component,
// so a non-ε flow into a contravariant position is reported as a clash.
func (s *System) meet(src CNode, h Annot, dst CNode) {
	sd, dd := &s.cons[src], &s.cons[dst]
	if sd.cons != dd.cons {
		s.recordClash(Clash{src, dst, h})
		return
	}
	for i := range sd.args {
		if s.Sig.VarianceOf(sd.cons, i) == terms.Contravariant {
			if h != s.Alg.Identity() {
				s.recordClash(Clash{src, dst, h})
				continue
			}
			s.addEdge(s.find(dd.args[i]), s.find(sd.args[i]), h)
			continue
		}
		s.addEdge(s.find(sd.args[i]), s.find(dd.args[i]), h)
	}
}

func (s *System) recordClash(c Clash) {
	if _, dup := s.clashSeen[c]; dup {
		return
	}
	s.clashSeen[c] = struct{}{}
	s.clashes = append(s.clashes, c)
	if m := s.metrics; m != nil {
		m.Clashes.Inc()
	}
}

// Solve drains the work queue, running resolution to a fixed point. It is
// idempotent and may be interleaved with constraint additions (online
// solving). It returns the number of facts processed.
func (s *System) Solve() int {
	n := 0
	m := s.metrics
	for len(s.work) > 0 {
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		n++
		v := s.find(it.v)
		// Snapshot the lists: they may grow while we iterate, and growth
		// is handled by the inserting call itself.
		out := s.vars[v].out
		sinks := s.vars[v].sinks
		projs := s.vars[v].projs
		if m != nil {
			m.Compositions.Add(int64(len(out) + len(sinks)))
		}
		for _, e := range out {
			s.addReach(s.find(e.to), it.cn, s.Alg.Then(it.a, e.a), parent{fromVar: v, annot: it.a, step: stepEdge})
		}
		for _, sk := range sinks {
			s.meet(it.cn, s.Alg.Then(it.a, sk.a), sk.cn)
		}
		cd := &s.cons[it.cn]
		for _, pr := range projs {
			if cd.cons == pr.cons {
				if m != nil {
					m.Compositions.Inc()
				}
				s.addEdge(s.find(cd.args[pr.idx]), s.find(pr.to), s.Alg.Then(it.a, pr.a))
			}
		}
	}
	return n
}
