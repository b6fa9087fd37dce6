package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// randomAtomicSystem builds a random system in the atomic fragment
// (var-var edges + constant lower bounds) over the given monoid.
func randomAtomicSystem(r *rand.Rand, mon *monoid.Monoid, nVars, nEdges, nConsts int) (*System, []CNode, []VarID) {
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	s := NewSystem(alg, sig, Options{})
	vars := make([]VarID, nVars)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	var consts []CNode
	for i := 0; i < nConsts; i++ {
		c := sig.MustDeclare("k"+string(rune('a'+i)), 0)
		cn := s.Constant(c)
		consts = append(consts, cn)
		s.AddLower(cn, vars[r.Intn(nVars)], Annot(r.Intn(mon.Size())))
	}
	for i := 0; i < nEdges; i++ {
		a := Annot(mon.Identity())
		if r.Intn(3) != 0 {
			a = Annot(r.Intn(mon.Size()))
		}
		s.AddVar(vars[r.Intn(nVars)], vars[r.Intn(nVars)], a)
	}
	return s, consts, vars
}

// Property: forward solving agrees with bidirectional solving on constant
// entailment (the right-congruence quotient is lossless for queries, §5).
func TestQuickForwardAgreesWithBidirectional(t *testing.T) {
	mon := privMonoid(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, consts, vars := randomAtomicSystem(r, mon, 6, 14, 3)
		s.Solve()
		fw, err := s.SolveForward(nil)
		if err != nil {
			return false
		}
		for _, cn := range consts {
			for _, v := range vars {
				if s.ConstEntailed(cn, v) != fw.ConstEntailed(cn, v) {
					return false
				}
				if s.Flows(cn, v) != fw.Flows(cn, v) {
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

// Property: backward solving agrees with bidirectional solving on constant
// entailment in the atomic fragment.
func TestQuickBackwardAgreesWithBidirectional(t *testing.T) {
	mon := privMonoid(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, consts, vars := randomAtomicSystem(r, mon, 6, 14, 3)
		s.Solve()
		bw, err := s.SolveBackward(vars)
		if err != nil {
			return false
		}
		for _, cn := range consts {
			for _, v := range vars {
				if s.ConstEntailed(cn, v) != bw.ConstEntailed(cn, v) {
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

// Property: the optimizations (cycle elimination, projection merging,
// hash-consing) do not change query answers.
func TestQuickOptimizationsPreserveSemantics(t *testing.T) {
	mon := oneBitMonoid(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		build := func(opts Options) (*System, []CNode, []VarID) {
			rr := rand.New(rand.NewSource(seed)) // same stream per variant
			alg := FuncAlgebra{mon}
			sig := terms.NewSignature()
			s := NewSystem(alg, sig, opts)
			const nVars = 7
			vars := make([]VarID, nVars)
			for i := range vars {
				vars[i] = s.Fresh("v")
			}
			ka := sig.MustDeclare("ka", 0)
			pair := sig.MustDeclare("pair", 2)
			cn := s.Constant(ka)
			s.AddLower(cn, vars[rr.Intn(nVars)], Annot(rr.Intn(mon.Size())))
			for i := 0; i < 10; i++ {
				a := Annot(mon.Identity())
				if rr.Intn(2) == 0 {
					a = Annot(rr.Intn(mon.Size()))
				}
				switch rr.Intn(5) {
				case 0:
					s.AddLower(s.Cons(pair, vars[rr.Intn(nVars)], vars[rr.Intn(nVars)]), vars[rr.Intn(nVars)], a)
				case 1:
					s.AddUpper(vars[rr.Intn(nVars)], s.Cons(pair, vars[rr.Intn(nVars)], vars[rr.Intn(nVars)]), a)
				case 2:
					s.AddProj(pair, rr.Intn(2), vars[rr.Intn(nVars)], vars[rr.Intn(nVars)], a)
				default:
					s.AddVar(vars[rr.Intn(nVars)], vars[rr.Intn(nVars)], a)
				}
			}
			s.Solve()
			return s, []CNode{cn}, vars
		}
		base, consts, vars := build(Options{})
		for _, opts := range []Options{
			{NoCycleElim: true},
			{NoProjMerge: true},
			{NoHashCons: true},
			{NoCycleElim: true, NoProjMerge: true, NoHashCons: true},
		} {
			alt, altConsts, altVars := build(opts)
			for ci := range consts {
				for vi := range vars {
					got := alt.ConstAnnots(altConsts[ci], altVars[vi])
					want := base.ConstAnnots(consts[ci], vars[vi])
					if len(got) != len(want) {
						return false
					}
					for i := range got {
						if got[i] != want[i] {
							return false
						}
					}
				}
			}
			if base.Consistent() != alt.Consistent() {
				return false
			}
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: solving is monotone — adding constraints never removes
// entailed facts (soundness of online solving).
func TestQuickOnlineMonotone(t *testing.T) {
	mon := privMonoid(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, consts, vars := randomAtomicSystem(r, mon, 5, 8, 2)
		s.Solve()
		type fact struct {
			cn CNode
			v  VarID
			a  Annot
		}
		var before []fact
		for _, cn := range consts {
			for _, v := range vars {
				for _, a := range s.ConstAnnots(cn, v) {
					before = append(before, fact{cn, v, a})
				}
			}
		}
		// Add more constraints and re-solve.
		for i := 0; i < 5; i++ {
			s.AddVar(vars[r.Intn(len(vars))], vars[r.Intn(len(vars))], Annot(r.Intn(mon.Size())))
		}
		s.Solve()
		for _, f := range before {
			found := false
			for _, a := range s.ConstAnnots(f.cn, f.v) {
				if a == f.a {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Forward solving can be demand driven (§5.1): restricting demand to one
// constant yields the same answers for it and skips the others.
func TestForwardDemandDriven(t *testing.T) {
	mon := privMonoid(t)
	r := rand.New(rand.NewSource(7))
	s, consts, vars := randomAtomicSystem(r, mon, 8, 20, 3)
	s.Solve()
	fw, err := s.SolveForward([]CNode{consts[0]})
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.SolveForward(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vars {
		if fw.ConstEntailed(consts[0], v) != full.ConstEntailed(consts[0], v) {
			t.Fatal("demand-driven answer differs for demanded constant")
		}
	}
	if fw.Facts() > full.Facts() {
		t.Error("demand-driven solving should not do more work")
	}
}

// The forward solver handles the full rule set: reproduce the Example 2.4
// system forward and check the derived flow.
func TestForwardStructuralAndProjection(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	oCons := sig.MustDeclare("o", 1)

	s := NewSystem(alg, sig, Options{})
	W, X, Y, Z, P := s.Var("W"), s.Var("X"), s.Var("Y"), s.Var("Z"), s.Var("P")
	fg := annotOf(mon, "g")
	cNode := s.Constant(cCons)
	s.AddLower(cNode, W, fg)
	s.AddLower(s.Cons(oCons, W), X, fg)
	s.AddUpper(X, s.Cons(oCons, Y), Annot(mon.Identity()))
	s.AddProjE(oCons, 0, X, P)
	s.AddVarE(Y, Z)

	fw, err := s.SolveForward(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Structural: W ⊆^{fg} Y, so c is at Z via Y with accepting state.
	if !fw.ConstEntailed(cNode, Z) {
		t.Error("forward solver missed the structural+transitive flow")
	}
	// Projection: o^-1(X) ⊆ P gives c at P.
	if !fw.ConstEntailed(cNode, P) {
		t.Error("forward solver missed the projection flow")
	}
	// Agreement with bidirectional.
	s.Solve()
	for _, v := range []VarID{W, X, Y, Z, P} {
		if s.ConstEntailed(cNode, v) != fw.ConstEntailed(cNode, v) {
			t.Errorf("forward/bidirectional disagree at %s", s.VarName(v))
		}
	}
}

func TestForwardClash(t *testing.T) {
	sig := terms.NewSignature()
	c := sig.MustDeclare("c", 1)
	d := sig.MustDeclare("d", 1)
	mon := oneBitMonoid(t)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	X, Y, V := s.Var("X"), s.Var("Y"), s.Var("V")
	s.AddLowerE(s.Cons(c, X), V)
	s.AddUpperE(V, s.Cons(d, Y))
	fw, err := s.SolveForward(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fw.Clashes()) != 1 {
		t.Errorf("forward solver found %d clashes, want 1", len(fw.Clashes()))
	}
}

func TestBackwardRejectsStructure(t *testing.T) {
	sig := terms.NewSignature()
	c := sig.MustDeclare("c", 1)
	mon := oneBitMonoid(t)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	X, V := s.Var("X"), s.Var("V")
	s.AddLowerE(s.Cons(c, X), V)
	if _, err := s.SolveBackward([]VarID{V}); err == nil {
		t.Error("backward solver should reject constructor constraints")
	}
}

func TestBackwardBits(t *testing.T) {
	mon := privMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)
	s := NewSystem(alg, sig, Options{})
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	pc := s.Constant(pcCons)
	s.AddLowerE(pc, a)
	s.AddVar(a, b, annotOf(mon, "seteuid0"))
	s.AddVar(b, c, annotOf(mon, "execl"))

	bw, err := s.SolveBackward([]VarID{c})
	if err != nil {
		t.Fatal(err)
	}
	if !bw.ConstEntailed(pc, c) {
		t.Error("backward solver missed the violation")
	}
	// The bitset at b must contain exactly the states from which execl
	// accepts: Priv (1) and the Error sink (2), but not Unpriv (0).
	if bits := bw.BitsAt(c, b); bits != 0b110 {
		t.Errorf("bits at b = %b, want 110", bits)
	}
	// At a: seteuid0 then execl accepts from Unpriv and Priv, and Error
	// stays accepting: 111.
	if bits := bw.BitsAt(c, a); bits != 0b111 {
		t.Errorf("bits at a = %b, want 111", bits)
	}
	if bw.ConstEntailed(pc, a) {
		t.Error("pc ⊆ a alone does not put pc at target c... (wrong target)")
	}
}

// The §5 work-measure claim: on a family with a large monoid (Figure 2)
// and long annotated chains, forward solving derives at most |S| facts per
// (constant, var) while bidirectional solving can derive up to |F|.
func TestStrategyWorkGap(t *testing.T) {
	mon, err := monoid.Build(monoid.Adversarial(4), 1<<16) // |F| = 256, |S| = 4
	if err != nil {
		t.Fatal(err)
	}
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	s := NewSystem(alg, sig, Options{})
	const n = 10
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	ca := s.Constant(a)
	s.AddLowerE(ca, vars[0])
	syms := []Annot{annotOf(mon, "rotate"), annotOf(mon, "swap"), annotOf(mon, "merge")}
	for i := 0; i < n; i++ {
		for j, sym := range syms {
			s.AddVar(vars[i], vars[(i+j+1)%n], sym)
		}
	}
	s.Solve()
	fw, err := s.SolveForward(nil)
	if err != nil {
		t.Fatal(err)
	}
	bidirFacts := s.Stats().Reach
	fwdFacts := fw.Facts()
	if fwdFacts > n*mon.M.NumStates {
		t.Errorf("forward facts %d exceed n·|S| = %d", fwdFacts, n*mon.M.NumStates)
	}
	if bidirFacts <= fwdFacts {
		t.Errorf("expected bidirectional (%d facts) to exceed forward (%d facts) on the adversarial machine",
			bidirFacts, fwdFacts)
	}
	// Both agree on entailment.
	for _, v := range vars {
		if s.ConstEntailed(ca, v) != fw.ConstEntailed(ca, v) {
			t.Fatal("strategies disagree")
		}
	}
}

// Direct constructor-constructor constraints must be visible to the
// unidirectional solvers too.
func TestForwardSeesConsCons(t *testing.T) {
	mon := oneBitMonoid(t)
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	o := sig.MustDeclare("o", 1)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	x, y := s.Var("x"), s.Var("y")
	ca := s.Constant(a)
	s.AddLower(ca, x, annotOf(mon, "g"))
	s.AddConsCons(s.Cons(o, x), s.Cons(o, y), Annot(mon.Identity()))
	s.Solve()
	if !s.ConstEntailed(ca, y) {
		t.Fatal("bidirectional lost the cons-cons flow")
	}
	fw, err := s.SolveForward(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fw.ConstEntailed(ca, y) {
		t.Error("forward solver must see cons-cons constraints")
	}
}
