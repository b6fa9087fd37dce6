package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rasc/internal/monoid"
	"rasc/internal/subst"
)

// --- Reference PN reachability ------------------------------------------
//
// refPNReach is the map-based PN reachability of §6.2 that the indexed
// PNResult replaced, kept here as an oracle: facts in a map keyed by
// (variable, annotation, phase), a second map deduplicating the
// discovery order, and a per-variable annotation map built on first At.

type refPNKey struct {
	v       VarID
	a       Annot
	wrapped bool
}

type refPNParent struct {
	fromV VarID
	fromA Annot
	fromW bool
	via   CNode
	pop   bool
}

type refPNResult struct {
	sys   *System
	cn    CNode
	facts map[refPNKey]refPNParent
	order []PNFact
	seen  map[PNFact]bool
	byVar map[VarID][]Annot
}

func refPNReach(s *System, cn CNode) *refPNResult {
	r := &refPNResult{sys: s, cn: cn, facts: make(map[refPNKey]refPNParent), seen: make(map[PNFact]bool)}
	projIdx := map[VarID][]rawConstraint{}
	for _, rc := range s.raw {
		if rc.kind == rawProj {
			x := s.find(rc.x)
			projIdx[x] = append(projIdx[x], rc)
		}
	}
	type item struct {
		v       VarID
		a       Annot
		wrapped bool
	}
	var work []item
	add := func(v VarID, a Annot, wrapped bool, p refPNParent) {
		v = s.find(v)
		k := refPNKey{v, a, wrapped}
		if _, dup := r.facts[k]; dup {
			return
		}
		r.facts[k] = p
		f := PNFact{v, a}
		if !r.seen[f] {
			r.seen[f] = true
			r.order = append(r.order, f)
		}
		work = append(work, item{v, a, wrapped})
	}
	for _, oc := range s.cons[cn].occur {
		add(oc.v, oc.a, false, refPNParent{fromV: -1, via: -1})
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if !it.wrapped {
			for _, e := range s.vars[it.v].out {
				add(s.find(e.to), s.Alg.Then(it.a, e.a), false,
					refPNParent{fromV: it.v, fromA: it.a, via: -1})
			}
			for _, rc := range projIdx[it.v] {
				add(s.find(rc.y), s.Alg.Then(it.a, rc.a), false,
					refPNParent{fromV: it.v, fromA: it.a, via: -1, pop: true})
			}
		}
		for _, use := range s.vars[it.v].argOf {
			for _, oc := range s.cons[use.cn].occur {
				add(oc.v, s.Alg.Then(it.a, oc.a), true,
					refPNParent{fromV: it.v, fromA: it.a, fromW: it.wrapped, via: use.cn})
			}
		}
	}
	return r
}

func (r *refPNResult) At(v VarID) []Annot {
	if r.byVar == nil {
		r.byVar = make(map[VarID][]Annot)
		for _, f := range r.order {
			r.byVar[f.V] = append(r.byVar[f.V], f.A)
		}
		for _, as := range r.byVar {
			sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		}
	}
	return r.byVar[r.sys.find(v)]
}

func (r *refPNResult) Accepting() []PNFact {
	var out []PNFact
	for _, f := range r.order {
		if r.sys.Alg.Accepting(f.A) {
			out = append(out, f)
		}
	}
	return out
}

func (r *refPNResult) Trace(v VarID, a Annot) []TraceStep {
	v = r.sys.find(v)
	var steps []TraceStep
	seen := map[refPNKey]bool{}
	k, ok := r.lookup(v, a)
	if !ok {
		return nil
	}
	for {
		p, found := r.facts[k]
		if !found || seen[k] {
			break
		}
		seen[k] = true
		steps = append(steps, TraceStep{Var: k.v, Annot: k.a, Wrapped: p.via, Popped: p.pop})
		if p.fromV < 0 {
			pre := r.sys.Witness(k.v, r.cn, k.a)
			if len(pre) > 1 {
				// Witness is oldest first; the chain here is newest first.
				reverse(pre)
				steps = append(steps, pre[1:]...)
			}
			break
		}
		k = refPNKey{r.sys.find(p.fromV), p.fromA, p.fromW}
	}
	reverse(steps)
	return steps
}

func (r *refPNResult) lookup(v VarID, a Annot) (refPNKey, bool) {
	if _, ok := r.facts[refPNKey{v, a, false}]; ok {
		return refPNKey{v, a, false}, true
	}
	if _, ok := r.facts[refPNKey{v, a, true}]; ok {
		return refPNKey{v, a, true}, true
	}
	return refPNKey{}, false
}

func (r *refPNResult) Provenance(v VarID, a Annot) []ProvStep {
	return ProvFromTrace(r.Trace(v, a))
}

// --- Differential test ----------------------------------------------------

// pnMismatch compares PNResult, queried into reuse (nil for a new
// result), against the reference on every query a client can ask,
// returning a description of the first difference.
func pnMismatch(s *System, cn CNode, reuse *PNResult) string {
	got, want := s.PNReachInto(reuse, cn), refPNReach(s, cn)
	if !slices.Equal(got.Facts(), want.order) {
		return "Facts order"
	}
	for v := range s.vars {
		if !slices.Equal(got.At(VarID(v)), want.At(VarID(v))) {
			return "At"
		}
		var wantAcc Annot
		wantOK := false
		for _, a := range want.At(VarID(v)) {
			if s.Alg.Accepting(a) {
				wantAcc, wantOK = a, true
				break
			}
		}
		if gotAcc, gotOK := got.AcceptingAt(VarID(v)); gotOK != wantOK || gotAcc != wantAcc {
			return "AcceptingAt"
		}
	}
	if !slices.Equal(got.Accepting(), want.Accepting()) {
		return "Accepting"
	}
	for _, f := range want.order {
		if !slices.Equal(got.Trace(f.V, f.A), want.Trace(f.V, f.A)) {
			return "Trace"
		}
		if !slices.Equal(got.Provenance(f.V, f.A), want.Provenance(f.V, f.A)) {
			return "Provenance"
		}
	}
	// A fact the query never derived traces to nothing on both sides.
	if got.Trace(0, Annot(1<<20)) != nil || want.Trace(0, Annot(1<<20)) != nil {
		return "Trace of an unknown fact"
	}
	return ""
}

// envPool interns a few parametric environments over mon, so that random
// constraints carry substitution-environment annotations.
func envPool(mon *monoid.Monoid) (*subst.Table, []Annot) {
	tab := subst.NewTable(mon)
	pool := []Annot{Annot(tab.Identity())}
	for f := 0; f < mon.Size(); f++ {
		fid := monoid.FuncID(f)
		pool = append(pool, Annot(tab.FromFunc(fid)), Annot(tab.Instantiate("x", "fd1", fid)))
	}
	pool = append(pool, Annot(tab.Instantiate("x", "fd2", monoid.FuncID(1))))
	return tab, pool
}

// Property: the indexed PN reachability answers exactly as the map-based
// reference — the same facts in the same discovery order, the same
// per-variable annotations (for every variable, with or without facts),
// the same accepting facts, and the same witness trace and provenance
// chain for every fact — under the monoid and the environment algebra,
// on monolithic systems and on forks layered over a frozen base, both
// for a new result per query and for one result that every other query
// of the run fills again.
func TestPNReachMatchesReference(t *testing.T) {
	priv := privMonoid(t)
	tab, pool := envPool(oneBitMonoid(t))
	algebras := []struct {
		name  string
		alg   Algebra
		annot func(r *rand.Rand) Annot
		count int // environment systems derive far more PN facts
	}{
		{"monoid", FuncAlgebra{priv}, func(r *rand.Rand) Annot { return Annot(r.Intn(priv.Size())) }, 150},
		{"env", EnvAlgebra{Tab: tab}, func(r *rand.Rand) Annot { return pool[r.Intn(len(pool))] }, 40},
	}
	const nVars, nConsts = 10, 3
	for _, ac := range algebras {
		alg, annot, count := ac.alg, ac.annot, ac.count
		t.Run(ac.name, func(t *testing.T) {
			reused := new(PNResult)
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				anyAnnot := func() Annot { return annot(r) }
				ident := func() Annot { return alg.Identity() }
				baseOps := randomOps(r, 20, nVars, nConsts, ident)
				layerOps := randomOps(r, 20, nVars, nConsts, anyAnnot)

				mono := newSysEnv(alg, Options{}, nVars, nConsts)
				mono.apply(baseOps)
				mono.apply(layerOps)
				mono.s.Solve()

				base := newSysEnv(alg, Options{}, nVars, nConsts)
				base.apply(baseOps)
				base.s.Solve()
				base.s.Freeze()
				layered := base.fork(alg)
				layered.apply(layerOps)
				layered.s.Solve()

				for i, e := range []*sysEnv{mono, layered} {
					for j, cn := range e.consts {
						// Every other query refills the run's one result.
						var reuse *PNResult
						if (i+j)%2 == 1 {
							reuse = reused
						}
						if msg := pnMismatch(e.s, cn, reuse); msg != "" {
							t.Logf("seed %d (reused %v): %s differs", seed, reuse != nil, msg)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
				t.Error(err)
			}
		})
	}
}
