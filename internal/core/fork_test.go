package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// sysOp is one constraint of a randomly generated system, replayable
// into any System so that monolithic and fork-layered builds see
// byte-identical input.
type sysOp struct {
	kind    int // 0 var-var, 1 cons lower, 2 upper, 3 proj, 4 const lower
	x, y, z int // var indices
	c       int // constant index (kind 4)
	idx     int // projection index (kind 3)
	pair    int // binary constructor index (kinds 1-3)
	a       Annot
}

func randomOps(r *rand.Rand, nOps, nVars, nConsts int, annot func() Annot) []sysOp {
	ops := make([]sysOp, nOps)
	for i := range ops {
		ops[i] = sysOp{
			kind: r.Intn(5),
			x:    r.Intn(nVars), y: r.Intn(nVars), z: r.Intn(nVars),
			c: r.Intn(nConsts), idx: r.Intn(2),
			a: annot(),
		}
	}
	return ops
}

// numPairs is the number of binary constructors a sysEnv declares.
const numPairs = 12

// hubOps returns a stream in which the first nHubs variables are hubs:
// every op attaches an edge, a sink, a projection (over one of the first
// nPairs constructors) or a lower bound at a hub, so enough ops grow a
// hub's lists long, past 16 entries. No constraint flows into a hub, so
// no cycle collapses one. Every op is issued twice, the repeats in
// shuffled order, so dedup must find each repeat in a long list.
func hubOps(r *rand.Rand, nOps, nHubs, nVars, nConsts, nPairs int, annot func() Annot) []sysOp {
	other := func() int { return nHubs + r.Intn(nVars-nHubs) }
	ops := make([]sysOp, nOps, 2*nOps)
	for i := range ops {
		op := sysOp{
			kind: []int{0, 0, 1, 2, 2, 3, 3, 4}[r.Intn(8)],
			x:    r.Intn(nHubs), y: other(), z: other(),
			c: r.Intn(nConsts), idx: r.Intn(2), pair: r.Intn(nPairs),
			a: annot(),
		}
		if op.kind == 1 { // the lower bound's constructor flows into the hub
			op.x, op.z = op.z, op.x
		}
		ops[i] = op
	}
	for _, i := range r.Perm(nOps) {
		ops = append(ops, ops[i])
	}
	return ops
}

// hubVars is the number of variables of the hub-heavy streams.
const hubVars = 32

// hubStreams returns a base and a layer stream over 3 hubs (see hubOps).
// The base, over identity annotations and 11 constructors, grows each
// hub's out, sink and projection lists past 16 entries; the layer, over
// any annotation and every constructor, grows them again.
func hubStreams(r *rand.Rand, nConsts int, ident, anyAnnot func() Annot) (base, layer []sysOp) {
	base = hubOps(r, 500, 3, hubVars, nConsts, 11, ident)
	layer = hubOps(r, 200, 3, hubVars, nConsts, numPairs, anyAnnot)
	return base, layer
}

// sysEnv binds a System to the shared var/constant layout the ops index.
type sysEnv struct {
	s      *System
	pair   terms.ConsID // pairs[0]
	pairs  []terms.ConsID
	vars   []VarID
	consts []CNode
}

func newSysEnv(alg Algebra, opts Options, nVars, nConsts int) *sysEnv {
	sig := terms.NewSignature()
	s := NewSystem(alg, sig, opts)
	e := &sysEnv{s: s, pair: sig.MustDeclare("pair", 2)}
	for i := 0; i < nVars; i++ {
		e.vars = append(e.vars, s.Fresh("v"))
	}
	for i := 0; i < nConsts; i++ {
		c := sig.MustDeclare(fmt.Sprintf("k%d", i), 0)
		e.consts = append(e.consts, s.Constant(c))
	}
	e.pairs = append(e.pairs, e.pair)
	for i := 1; i < numPairs; i++ {
		e.pairs = append(e.pairs, sig.MustDeclare(fmt.Sprintf("pair%d", i), 2))
	}
	return e
}

// fork continues the environment on a forked System.
func (e *sysEnv) fork(alg Algebra) *sysEnv {
	f := *e
	f.s = e.s.Fork(alg)
	return &f
}

func (e *sysEnv) apply(ops []sysOp) {
	s := e.s
	for _, op := range ops {
		switch op.kind {
		case 0:
			s.AddVar(e.vars[op.x], e.vars[op.y], op.a)
		case 1:
			s.AddLower(s.Cons(e.pairs[op.pair], e.vars[op.x], e.vars[op.y]), e.vars[op.z], op.a)
		case 2:
			s.AddUpper(e.vars[op.x], s.Cons(e.pairs[op.pair], e.vars[op.y], e.vars[op.z]), op.a)
		case 3:
			s.AddProj(e.pairs[op.pair], op.idx, e.vars[op.x], e.vars[op.y], op.a)
		case 4:
			s.AddLower(e.consts[op.c], e.vars[op.x], op.a)
		}
	}
}

// canonClashes renders the clash set up to solver-internal identity:
// constructor names instead of CNode ids (hash-consing granularity
// differs between variants) and each argument named by the smallest test
// variable of its union-find class (representative choice and cons
// interning relative to cycle collapsing are timing-dependent). Two
// semantically equal clash sets render identically regardless of
// options or fork layering; entries are sorted and deduplicated.
func (e *sysEnv) canonClashes() []string { return e.canonClashesNorm(nil) }

// canonClashesNorm additionally maps each class-minimal test variable
// through norm, so that clash sets from systems with different collapsing
// behaviour (e.g. NoCycleElim) can be compared under one reference
// equivalence.
func (e *sysEnv) canonClashesNorm(norm map[VarID]VarID) []string {
	s := e.s
	classMin := map[VarID]VarID{}
	for _, v := range e.vars {
		r := s.Rep(v)
		if m, ok := classMin[r]; !ok || v < m {
			classMin[r] = v
		}
	}
	render := func(cn CNode) string {
		cd := &s.cons[cn]
		out := s.Sig.Name(cd.cons)
		if len(cd.args) == 0 {
			return out
		}
		out += "("
		for i, a := range cd.args {
			if i > 0 {
				out += ","
			}
			if m, ok := classMin[s.Rep(a)]; ok {
				if n, ok := norm[m]; ok {
					m = n
				}
				out += fmt.Sprint(int(m))
			} else {
				out += "?"
			}
		}
		return out + ")"
	}
	seen := map[string]bool{}
	var out []string
	for _, cl := range s.Clashes() {
		key := render(cl.Src) + " <= " + render(cl.Dst) + " @ " + s.Alg.String(cl.Annot)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// jointNorm canonicalizes test variables under the union of every given
// system's variable classes. Cycle elimination is best-effort — two
// systems at the same semantic fixpoint may collapse different subsets
// of the ε-equivalent variables — so clash sets are only comparable
// after renaming through the joint equivalence.
func jointNorm(envs ...*sysEnv) map[VarID]VarID {
	parent := map[VarID]VarID{}
	var find func(VarID) VarID
	find = func(v VarID) VarID {
		if parent[v] == v {
			return v
		}
		parent[v] = find(parent[v])
		return parent[v]
	}
	for _, v := range envs[0].vars {
		parent[v] = v
	}
	for _, e := range envs {
		byRep := map[VarID]VarID{}
		for _, v := range e.vars {
			r := e.s.Rep(v)
			if first, ok := byRep[r]; ok {
				a, b := find(first), find(v)
				if a != b {
					if b < a {
						a, b = b, a
					}
					parent[b] = a
				}
			} else {
				byRep[r] = v
			}
		}
	}
	norm := map[VarID]VarID{}
	for _, v := range envs[0].vars {
		norm[v] = find(v)
	}
	return norm
}

func annotsEqual(a, b []Annot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: solving a base and layering annotated constraints on a Fork
// answers every query exactly as one monolithic system that saw all
// constraints — the correctness contract of the driver's shared-skeleton
// reuse.
func TestQuickForkEquivalentToMonolithic(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	ident := func() Annot { return Annot(mon.Identity()) }
	const nVars, nConsts = 8, 3
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		anyAnnot := func() Annot { return Annot(r.Intn(mon.Size())) }
		baseOps := randomOps(r, 12, nVars, nConsts, ident)
		layerOps := randomOps(r, 10, nVars, nConsts, anyAnnot)
		return forkMatchesMonolithic(alg, nVars, nConsts, baseOps, layerOps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}

	// The random streams rarely grow a list long. In this one the hubs'
	// lists grow past 16 entries in the base and again in the fork (over
	// more constructors and any annotation), every constraint issued
	// twice.
	r := rand.New(rand.NewSource(3))
	baseOps, layerOps := hubStreams(r, nConsts, ident, func() Annot { return Annot(r.Intn(mon.Size())) })
	if !forkMatchesMonolithic(alg, hubVars, nConsts, baseOps, layerOps) {
		t.Error("hub-heavy stream: the fork disagrees with the monolithic system")
	}
}

// forkMatchesMonolithic reports whether layering layerOps on a fork of a
// solved base of baseOps answers every query as one system that saw
// both streams.
func forkMatchesMonolithic(alg Algebra, nVars, nConsts int, baseOps, layerOps []sysOp) bool {
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

	for ci := range mono.consts {
		for vi := range mono.vars {
			want := mono.s.ConstAnnots(mono.consts[ci], mono.vars[vi])
			got := layered.s.ConstAnnots(layered.consts[ci], layered.vars[vi])
			if !annotsEqual(got, want) {
				return false
			}
		}
	}
	norm := jointNorm(mono, layered)
	wantClash := mono.canonClashesNorm(norm)
	gotClash := layered.canonClashesNorm(norm)
	if len(wantClash) != len(gotClash) {
		return false
	}
	for i := range wantClash {
		if wantClash[i] != gotClash[i] {
			return false
		}
	}
	// PN reachability through the fork agrees too.
	pnWant := mono.s.PNReach(mono.consts[0])
	pnGot := layered.s.PNReach(layered.consts[0])
	for vi := range mono.vars {
		a := append([]Annot(nil), pnWant.At(mono.vars[vi])...)
		b := append([]Annot(nil), pnGot.At(layered.vars[vi])...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if !annotsEqual(a, b) {
			return false
		}
	}
	return true
}

// Property: the solver optimizations are transparent. Replaying one
// random constraint stream into systems with each optimization disabled
// (and with dead-annotation pruning enabled — the one-bit monoid has no
// dead elements, so pruning must be an exact no-op) yields the same
// consistency verdict, constant-reachability annotation sets and clash
// set as the fully optimized reference.
func TestQuickDifferentialOptions(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	const nVars, nConsts = 8, 3
	variants := []Options{
		{NoCycleElim: true},
		{NoProjMerge: true},
		{NoHashCons: true},
		{NoCycleElim: true, NoProjMerge: true, NoHashCons: true},
		{PruneDead: true},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		anyAnnot := func() Annot { return Annot(r.Intn(mon.Size())) }
		ops := randomOps(r, 25, nVars, nConsts, anyAnnot)

		ref := newSysEnv(alg, Options{}, nVars, nConsts)
		ref.apply(ops)
		ref.s.Solve()
		for _, opt := range variants {
			e := newSysEnv(alg, opt, nVars, nConsts)
			e.apply(ops)
			e.s.Solve()
			if e.s.Consistent() != ref.s.Consistent() {
				return false
			}
			// Each variant may collapse a different subset of the
			// ε-equivalent variables (NoCycleElim collapses none), so the
			// clash comparison renders both sides under their joint classes.
			norm := jointNorm(ref, e)
			refClash := ref.canonClashesNorm(norm)
			for ci := range ref.consts {
				for vi := range ref.vars {
					want := ref.s.ConstAnnots(ref.consts[ci], ref.vars[vi])
					got := e.s.ConstAnnots(e.consts[ci], e.vars[vi])
					if !annotsEqual(got, want) {
						return false
					}
				}
			}
			gotClash := e.canonClashesNorm(norm)
			if len(gotClash) != len(refClash) {
				return false
			}
			for i := range refClash {
				if gotClash[i] != refClash[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// A fork never writes back: after heavy mutation of the fork, the base's
// statistics, derived facts and consistency are untouched, and neither
// system's lists hold an entry twice. The hub-heavy input has lists past
// 16 entries in the base that grow again in the fork, every constraint
// issued twice.
func TestForkIsolation(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	ident := func() Annot { return Annot(mon.Identity()) }
	r := rand.New(rand.NewSource(7))
	random := randomOps(r, 10, 6, 2, ident)
	hubBase, hubLayer := hubStreams(r, 2, ident, func() Annot { return Annot(r.Intn(mon.Size())) })
	for _, in := range []struct {
		name        string
		nVars       int
		base, layer []sysOp
	}{
		{"random", 6, random, nil},
		{"hubs", hubVars, hubBase, hubLayer},
	} {
		t.Run(in.name, func(t *testing.T) {
			base := newSysEnv(alg, Options{}, in.nVars, 2)
			base.apply(in.base)
			base.s.Solve()
			base.s.Freeze()

			before := base.s.Stats()
			snapshot := map[int][]Annot{}
			for vi, v := range base.vars {
				snapshot[vi] = base.s.ConstAnnots(base.consts[0], v)
			}

			f := base.fork(alg)
			f.apply(in.layer)
			g, _ := mon.SymbolFuncByName("g")
			for i := 0; i+1 < len(f.vars); i++ {
				f.s.AddVar(f.vars[i], f.vars[i+1], Annot(g))
				f.s.AddLower(f.consts[1], f.vars[i], Annot(g))
			}
			// A clash in the fork must not leak into the base either.
			f.s.AddUpper(f.vars[0], f.s.Cons(f.pair, f.vars[1], f.vars[2]), Annot(mon.Identity()))
			f.s.Solve()

			if got := base.s.Stats(); got != before {
				t.Errorf("base stats changed after fork mutation: %+v -> %+v", before, got)
			}
			for vi, v := range base.vars {
				if !annotsEqual(base.s.ConstAnnots(base.consts[0], v), snapshot[vi]) {
					t.Errorf("base ConstAnnots changed at var %d", vi)
				}
			}
			if got := len(base.s.Clashes()); got != before.Clashes {
				t.Errorf("fork clash leaked into base: %d -> %d", before.Clashes, got)
			}
			for _, s := range []*System{base.s, f.s} {
				if err := listsDuplicateFree(s); err != nil {
					t.Error(err)
				}
			}
			if in.name != "hubs" {
				return
			}
			if n, m := longestList(base.s), longestList(f.s); n <= 16 || m <= n {
				t.Errorf("test premise: the longest list holds %d entries in the base and %d in the fork; want over 16, and more in the fork", n, m)
			}
		})
	}
}

// listsDuplicateFree checks, without the solver's own dedup, that no
// variable's out, sink or projection list holds an entry twice.
func listsDuplicateFree(s *System) error {
	for v := range s.vars {
		d := &s.vars[v]
		if n := len(d.out); len(setOf(d.out)) != n {
			return fmt.Errorf("v%d: duplicate out edge", v)
		}
		if n := len(d.sinks); len(setOf(d.sinks)) != n {
			return fmt.Errorf("v%d: duplicate sink", v)
		}
		if n := len(d.projs); len(setOf(d.projs)) != n {
			return fmt.Errorf("v%d: duplicate projection", v)
		}
	}
	return nil
}

func setOf[T comparable](list []T) map[T]bool {
	set := map[T]bool{}
	for _, x := range list {
		set[x] = true
	}
	return set
}

// longestList returns the length of s's longest out, sink or projection
// list.
func longestList(s *System) int {
	n := 0
	for _, d := range s.vars {
		n = max(n, len(d.out), len(d.sinks), len(d.projs))
	}
	return n
}

// Concurrent forks of one frozen base, each layering its own constraints,
// stay independent (exercised under -race in CI).
func TestConcurrentForks(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	base := newSysEnv(alg, Options{}, 16, 4)
	for i := 0; i+1 < len(base.vars); i++ {
		base.s.AddVarE(base.vars[i], base.vars[i+1])
	}
	base.s.AddLower(base.consts[0], base.vars[0], Annot(mon.Identity()))
	base.s.Solve()
	base.s.Freeze()

	g, _ := mon.SymbolFuncByName("g")
	k, _ := mon.SymbolFuncByName("k")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := base.fork(alg)
			a := Annot(g)
			if w%2 == 1 {
				a = Annot(k)
			}
			// Each fork seeds its own constant with its own annotation.
			f.s.AddLower(f.consts[1+w%3], f.vars[w], a)
			f.s.Solve()
			got := f.s.ConstAnnots(f.consts[1+w%3], f.vars[len(f.vars)-1])
			if len(got) == 0 {
				errs[w] = fmt.Errorf("fork %d: layered constant did not propagate", w)
				return
			}
			for _, x := range got {
				if x != a {
					errs[w] = fmt.Errorf("fork %d: unexpected annotation %v", w, x)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// Explicit, Fresh-prefixed and Anon variable names round-trip and stay
// unique while cycle elimination collapses the variables themselves.
func TestFreshNamesSurviveCollapse(t *testing.T) {
	s := NewSystem(TrivialAlgebra{}, terms.NewSignature(), Options{})
	named := []VarID{s.Var("a"), s.Var("b"), s.Var("c")}
	fresh := []VarID{s.Fresh("t"), s.Fresh("t"), s.Fresh("u")}
	anon := s.Anon()
	all := append(append(append([]VarID(nil), named...), fresh...), anon)

	wantNames := make(map[VarID]string, len(all))
	for _, v := range all {
		wantNames[v] = s.VarName(v)
	}
	uniq := map[string]bool{}
	for _, n := range wantNames {
		if uniq[n] {
			t.Fatalf("duplicate variable name %q before collapse", n)
		}
		uniq[n] = true
	}
	if got := s.VarName(fresh[0]); got != "t#"+fmt.Sprint(int(fresh[0])) {
		t.Errorf("fresh name = %q, want prefix#id", got)
	}

	// Collapse everything into one ε-cycle.
	for i := range all {
		s.AddVarE(all[i], all[(i+1)%len(all)])
	}
	s.Solve()
	if s.Stats().Collapsed == 0 {
		t.Fatal("cycle did not collapse")
	}
	rep := s.Rep(all[0])
	for _, v := range all {
		if s.Rep(v) != rep {
			t.Fatalf("var %d not merged", v)
		}
		if got := s.VarName(v); got != wantNames[v] {
			t.Errorf("VarName(%d) changed across collapse: %q -> %q", v, wantNames[v], got)
		}
	}
	if s.Var("a") != named[0] || s.Var("b") != named[1] {
		t.Error("explicit names no longer intern to their original variables")
	}
	// New variables after the collapse still get unique ids and names.
	nf := s.Fresh("t")
	if nf == fresh[0] || nf == fresh[1] {
		t.Error("Fresh reused an id after collapse")
	}
	if n := s.VarName(nf); uniq[n] {
		t.Errorf("Fresh name %q collides after collapse", n)
	}
}

// Freeze's documented contract: idempotent, and write-free once the
// union-find is normalized, so a second Freeze (or a Freeze racing
// concurrent Forks) never perturbs a frozen base.
func TestFreezeIdempotent(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	r := rand.New(rand.NewSource(11))
	ident := func() Annot { return Annot(mon.Identity()) }
	e := newSysEnv(alg, Options{}, 10, 3)
	e.apply(randomOps(r, 50, 10, 3, ident)) // identity ops drive cycle collapsing
	e.s.Solve()
	e.s.Freeze()

	if e.s.Stats().Collapsed == 0 {
		t.Fatal("test premise: expected some collapsed variables")
	}
	first := make([]VarID, len(e.s.vars))
	for v := range e.s.vars {
		if p := e.s.vars[v].uf; e.s.vars[p].uf != p {
			t.Fatalf("after Freeze, parent of v%d is not a root", v)
		}
		first[v] = e.s.vars[v].uf
	}
	e.s.Freeze()
	for v := range e.s.vars {
		if e.s.vars[v].uf != first[v] {
			t.Fatalf("second Freeze moved v%d: %d -> %d", v, first[v], e.s.vars[v].uf)
		}
		e.s.Rep(VarID(v)) // find on a normalized path must not write either
	}
	for v := range e.s.vars {
		if e.s.vars[v].uf != first[v] {
			t.Fatalf("Rep after Freeze moved v%d", v)
		}
	}
}

// Forking after one Freeze and after a redundant second Freeze yields
// equivalent layers: same stats and same query answers for the same
// layered constraints.
func TestForkAfterDoubleFreeze(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	r := rand.New(rand.NewSource(12))
	ident := func() Annot { return Annot(mon.Identity()) }
	anyAnnot := func() Annot { return Annot(r.Intn(mon.Size())) }
	baseOps := randomOps(r, 30, 8, 3, ident)
	layerOps := randomOps(r, 12, 8, 3, anyAnnot)

	e := newSysEnv(alg, Options{}, 8, 3)
	e.apply(baseOps)
	e.s.Solve()
	e.s.Freeze()
	once := e.fork(alg)
	once.apply(layerOps)
	once.s.Solve()

	e.s.Freeze()
	twice := e.fork(alg)
	twice.apply(layerOps)
	twice.s.Solve()

	if once.s.Stats() != twice.s.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", once.s.Stats(), twice.s.Stats())
	}
	for ci := range e.consts {
		for vi := range e.vars {
			if !annotsEqual(
				once.s.ConstAnnots(once.consts[ci], once.vars[vi]),
				twice.s.ConstAnnots(twice.consts[ci], twice.vars[vi])) {
				t.Fatalf("ConstAnnots diverge at const %d var %d", ci, vi)
			}
		}
	}
}

// panicAlgebra is an Algebra whose Then panics once its budget of
// compositions is spent: a layer solved under it stops midway, with
// facts half propagated and work pending.
type panicAlgebra struct {
	Algebra
	budget *int
}

func (p panicAlgebra) Then(a, b Annot) Annot {
	if *p.budget--; *p.budget < 0 {
		panic("composition budget spent")
	}
	return p.Algebra.Then(a, b)
}

// layerEnd is how an earlier layer left a reused destination.
type layerEnd int

const (
	endSolved    layerEnd = iota // solved to a fixed point
	endAbandoned                 // constraints added, never solved
	endPanicked                  // a composition panicked midway through
)

// layerIn forks base into dst and layers ops on it, ending as end says.
// A panicking layer may compose budget times; one that gets through its
// solve then gets pnBudget compositions for a PN query into pn. It
// reports whether that query panicked.
func layerIn(dst *System, pn *PNResult, base *sysEnv, alg Algebra, ops []sysOp, end layerEnd, budget, pnBudget int) (pnPanicked bool) {
	if end == endPanicked {
		alg = panicAlgebra{alg, &budget}
		defer func() { recover() }()
	}
	f := *base
	f.s = base.s.ForkInto(dst, alg)
	f.apply(ops)
	if end == endAbandoned {
		return false
	}
	f.s.Solve()
	if end == endPanicked {
		budget, pnPanicked = pnBudget, true
		f.s.PNReachInto(pn, f.consts[0])
	}
	return false
}

// sameLayer describes the first difference between two layered systems
// over the same variables and constants, "" when there is none: solver
// counts, names, representatives, derived facts, clashes, the raw log,
// and each constant's PN reachability (facts in discovery order, the
// annotations at every variable and every fact's witness), the latter
// queried through pn on b.
func sameLayer(a, b *sysEnv, pn *PNResult) string {
	if a.s.Stats() != b.s.Stats() {
		return fmt.Sprintf("stats %+v, want %+v", b.s.Stats(), a.s.Stats())
	}
	if !slices.Equal(a.s.raw, b.s.raw) {
		return "raw constraints"
	}
	if !reflect.DeepEqual(a.s.Clashes(), b.s.Clashes()) {
		return "clashes"
	}
	for v := range a.s.vars {
		id := VarID(v)
		if a.s.VarName(id) != b.s.VarName(id) || a.s.Rep(id) != b.s.Rep(id) {
			return fmt.Sprintf("name or representative of v%d", v)
		}
		if !slices.Equal(a.s.SourcesAt(id), b.s.SourcesAt(id)) {
			return fmt.Sprintf("sources at v%d", v)
		}
	}
	for _, cn := range a.consts {
		want := a.s.PNReach(cn)
		got := b.s.PNReachInto(pn, cn)
		if !slices.Equal(got.Facts(), want.Facts()) {
			return fmt.Sprintf("PN facts of c%d", cn)
		}
		for v := range a.s.vars {
			if !slices.Equal(got.At(VarID(v)), want.At(VarID(v))) {
				return fmt.Sprintf("PN annotations of c%d at v%d", cn, v)
			}
		}
		for _, f := range want.Facts() {
			if !slices.Equal(got.Trace(f.V, f.A), want.Trace(f.V, f.A)) {
				return fmt.Sprintf("PN trace of c%d at v%d", cn, f.V)
			}
		}
	}
	return ""
}

// sharedStorage names an array or map of a that b shares, "" when there
// is none. Constructor arguments, immutable once interned, may be shared.
func sharedStorage(a, b *System) string {
	for v := range min(len(a.vars), len(b.vars)) {
		x, y := &a.vars[v], &b.vars[v]
		if aliases(x.out, y.out) || aliases(x.sinks, y.sinks) || aliases(x.projs, y.projs) ||
			aliases(x.argOf, y.argOf) || aliases(x.reach.facts, y.reach.facts) || aliases(x.reach.table, y.reach.table) ||
			x.projMerge != nil && sameMap(x.projMerge, y.projMerge) {
			return fmt.Sprintf("the storage of v%d", v)
		}
	}
	for cn := range min(len(a.cons), len(b.cons)) {
		if aliases(a.cons[cn].occur, b.cons[cn].occur) {
			return fmt.Sprintf("the occurrences of c%d", cn)
		}
	}
	if aliases(a.vars, b.vars) || aliases(a.cons, b.cons) || aliases(a.raw, b.raw) || aliases(a.clashes, b.clashes) ||
		aliases(a.freshPrefixes, b.freshPrefixes) || aliases(a.work, b.work) || aliases(a.dfsMark, b.dfsMark) ||
		sameMap(a.varIndex, b.varIndex) || sameMap(a.consIndex, b.consIndex) ||
		sameMap(a.prefixIndex, b.prefixIndex) || sameMap(a.clashSeen, b.clashSeen) {
		return "a system-level array or table"
	}
	return ""
}

// aliases reports whether x and y start at one array.
func aliases[T any](x, y []T) bool {
	p := firstElem(x)
	return p != nil && p == firstElem(y)
}

// sameMap reports whether x and y are one map.
func sameMap[K comparable, V any](x, y map[K]V) bool {
	return x != nil && reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer()
}

// firstElem returns the address of s's array, nil when it has none.
func firstElem[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// seededStreams draws from r a base stream over identity annotations
// and a layer stream, both over nVars variables and nConsts constants:
// random streams over 4 to hubVars variables, or the hub-heavy ones when
// seed ≡ 0 (mod 4). When seed ≡ 1 (mod 5) the layer's annotations are
// mostly ε, so that layers collapse cycles.
func seededStreams(r *rand.Rand, seed int64, mon *monoid.Monoid, nConsts int) (nVars int, baseOps, layerOps []sysOp) {
	ident := func() Annot { return Annot(mon.Identity()) }
	anyAnnot := func() Annot { return Annot(r.Intn(mon.Size())) }
	if uint64(seed)%5 == 1 {
		anyAnnot = func() Annot {
			if r.Intn(3) > 0 {
				return ident()
			}
			return Annot(r.Intn(mon.Size()))
		}
	}
	nVars = 4 + r.Intn(hubVars-4)
	baseOps = randomOps(r, 4*nVars, nVars, nConsts, ident)
	layerOps = randomOps(r, 3*nVars, nVars, nConsts, anyAnnot)
	if uint64(seed)%4 == 0 {
		nVars = hubVars
		baseOps, layerOps = hubStreams(r, nConsts, ident, anyAnnot)
	}
	return nVars, baseOps, layerOps
}

// ForkInto into a destination that earlier layers used — over bases of
// other sizes, the random and the hub-heavy streams alternating, each
// layer solved, abandoned with work pending or cut short by a panic —
// layers exactly as a fresh Fork does, and PNReachInto over one reused
// result answers as PNReach. Where the destination's arrays are large
// enough they are reused, and no header beyond the new base's survives.
func TestForkIntoMatchesFork(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	const nConsts = 3
	dst, pn := new(System), new(PNResult)
	grown, shrunk, reused, pnPanics := 0, 0, 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nVars, baseOps, layerOps := seededStreams(r, seed, mon, nConsts)
		base := newSysEnv(alg, Options{}, nVars, nConsts)
		base.apply(baseOps)
		base.s.Solve()
		base.s.Freeze()

		want := base.fork(alg)
		want.apply(layerOps)
		want.s.Solve()

		before := *dst
		got := *base
		got.s = base.s.ForkInto(dst, alg)
		if got.s != dst {
			t.Logf("seed %d: ForkInto returned another System", seed)
			return false
		}
		switch n := len(base.s.vars); {
		case len(before.vars) > n:
			shrunk++
		case len(before.vars) < n:
			grown++
		}
		for _, vd := range dst.vars[len(dst.vars):cap(dst.vars)] {
			if !reflect.ValueOf(vd).IsZero() {
				t.Logf("seed %d: a header beyond the base's survived the fork", seed)
				return false
			}
		}
		for _, cd := range dst.cons[len(dst.cons):cap(dst.cons)] {
			if !reflect.ValueOf(cd).IsZero() {
				t.Logf("seed %d: a constructor beyond the base's survived the fork", seed)
				return false
			}
		}
		if cap(before.vars) >= len(base.s.vars) && cap(before.cons) >= len(base.s.cons) &&
			cap(before.raw) >= len(base.s.raw) && cap(before.work) > 0 && before.dfsMark != nil {
			reused++
			if firstElem(dst.vars) != firstElem(before.vars) || firstElem(dst.cons) != firstElem(before.cons) ||
				firstElem(dst.raw) != firstElem(before.raw) || firstElem(dst.work) != firstElem(before.work) ||
				firstElem(dst.dfsMark) != firstElem(before.dfsMark) {
				t.Logf("seed %d: ForkInto reallocated an array large enough to reuse", seed)
				return false
			}
		}
		for _, f := range []*System{want.s, got.s} {
			if what := sharedStorage(base.s, f); what != "" {
				t.Logf("seed %d: a fork shares %s with its base", seed, what)
				return false
			}
		}
		got.apply(layerOps)
		got.s.Solve()
		if msg := sameLayer(want, &got, pn); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		// Leave dst and pn as the next layer will find them.
		budget := r.Intn(20 * len(layerOps))
		if r.Intn(2) == 0 {
			budget = math.MaxInt
		}
		if layerIn(dst, pn, base, alg, layerOps, layerEnd(uint64(seed)%3), budget, r.Intn(8)) {
			pnPanics++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if grown == 0 || shrunk == 0 || reused == 0 || pnPanics == 0 {
		t.Errorf("test premise: %d forks into a smaller destination, %d into a larger one, %d reusing every array, %d PN queries cut short; want each > 0",
			grown, shrunk, reused, pnPanics)
	}
}

// A layer forked into a destination keeps counting the cycle check's
// epochs. Here an earlier layer's search marked w at its second epoch;
// the new layer's second search, closing the base's ε-path y → w → x
// into a cycle, must not read that mark as its own and stop at w.
func TestForkIntoKeepsCycleEpochs(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	eps := Annot(mon.Identity())
	base := newSysEnv(alg, Options{}, 6, 1)
	y, w, x, z, a, b := base.vars[0], base.vars[1], base.vars[2], base.vars[3], base.vars[4], base.vars[5]
	base.s.AddVar(y, w, eps)
	base.s.AddVar(w, x, eps)
	base.s.AddLower(base.consts[0], y, eps)
	base.s.Solve()
	base.s.Freeze()

	dst := new(System)
	earlier := base.s.ForkInto(dst, alg)
	earlier.AddVar(a, b, eps) // first search: marks b
	earlier.AddVar(z, w, eps) // second search: marks w and x
	earlier.Solve()

	layer := func(s *System) {
		s.AddVar(a, b, eps)
		s.AddVar(x, y, eps) // closes y → w → x → y
		s.Solve()
	}
	want := base.fork(alg)
	layer(want.s)
	got := *base
	got.s = base.s.ForkInto(dst, alg)
	layer(got.s)
	if want.s.Stats().Collapsed != 2 {
		t.Fatalf("test premise: the fresh fork collapsed %d variables, want 2", want.s.Stats().Collapsed)
	}
	if msg := sameLayer(want, &got, nil); msg != "" {
		t.Error(msg)
	}
}

// allocsAfter returns the allocations f makes when it runs right after
// prepare, counted as testing.AllocsPerRun counts them: prepare is its
// warm-up run and f its one measured run.
func allocsAfter(prepare, f func()) float64 {
	prepared := false
	return testing.AllocsPerRun(1, func() {
		if !prepared {
			prepared = true
			prepare()
			return
		}
		f()
	})
}

// After a layer in a destination, forking the same base into it again
// refills the destination's arrays and maps and allocates nothing, also
// where the layer collapsed the base's variables into cycles. The bases
// hold projection-merge maps and clashes.
func TestForkIntoReusesStorage(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	const nConsts = 3
	var maps, clashes, mapsCollapsed int
	for seed := int64(0); seed < 20; seed++ {
		nVars, baseOps, layerOps := seededStreams(rand.New(rand.NewSource(seed)), seed, mon, nConsts)
		base := newSysEnv(alg, Options{}, nVars, nConsts)
		base.apply(baseOps)
		base.s.Solve()
		base.s.Freeze()
		for _, vd := range base.s.vars {
			if len(vd.projMerge) > 0 {
				maps++
			}
		}
		clashes += len(base.s.clashes)

		dst := new(System)
		layer := func() {
			f := *base
			f.s = base.s.ForkInto(dst, alg)
			f.apply(layerOps)
			f.s.Solve()
			for v, vd := range base.s.vars {
				if len(vd.projMerge) > 0 && vd.uf == VarID(v) && dst.vars[v].uf != VarID(v) {
					mapsCollapsed++
				}
			}
		}
		refork := func() { base.s.ForkInto(dst, alg) }
		if n := allocsAfter(layer, refork); n != 0 {
			t.Errorf("seed %d: a fork after a layer made %v allocations, want 0", seed, n)
		}
		if what := sharedStorage(base.s, dst); what != "" {
			t.Errorf("seed %d: the fork shares %s with its base", seed, what)
		}
		if n := testing.AllocsPerRun(10, refork); n != 0 {
			t.Errorf("seed %d: a fork after a fork made %v allocations, want 0", seed, n)
		}
	}
	if maps == 0 || clashes == 0 || mapsCollapsed == 0 {
		t.Errorf("test premise: the bases hold %d projection-merge maps and %d clashes, and the layers collapsed %d variables with a map; want each > 0",
			maps, clashes, mapsCollapsed)
	}
}
