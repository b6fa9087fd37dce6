package core

import (
	"strings"
	"testing"

	"rasc/internal/dfa"
	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// RootAnnots reconstructs the function constraints f∘α ⊆ β of the
// structural rule at query time.
func TestRootAnnots(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	oCons := sig.MustDeclare("o", 1)

	s := NewSystem(alg, sig, Options{})
	W, X, Y := s.Var("W"), s.Var("X"), s.Var("Y")
	fg := annotOf(mon, "g")
	cNode := s.Constant(cCons)
	oW := s.Cons(oCons, W)
	oY := s.Cons(oCons, Y)
	s.AddLower(cNode, W, fg)
	s.AddLower(oW, X, fg) // o^β(W) ⊆^g X
	s.AddUpperE(X, oY)    // X ⊆ o^γ(Y): meet gives f_g∘β ⊆ γ
	s.Solve()

	roots := s.RootAnnots([]CNode{cNode, oW})
	// β ⊇ {f_ε} (seeded); γ ⊇ {f_g∘f_ε·fg} = {f_g}.
	if !roots[oW][Annot(mon.Identity())] {
		t.Error("β should contain f_ε (seeded)")
	}
	if !roots[oY][fg] {
		t.Errorf("γ = %v, want f_g", roots[oY])
	}
	if roots[oY][Annot(mon.Identity())] {
		t.Error("γ must not contain f_ε (not seeded, not forced)")
	}

	// Without seeds, nothing flows into γ (no source class for β).
	empty := s.RootAnnots(nil)
	if len(empty[oY]) != 0 {
		t.Errorf("unseeded γ = %v, want empty", empty[oY])
	}
}

func TestLowerNodes(t *testing.T) {
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	b := sig.MustDeclare("b", 0)
	s := NewSystem(TrivialAlgebra{}, sig, Options{})
	x := s.Var("x")
	ca := s.Constant(a)
	cb := s.Constant(b)
	s.AddLowerE(ca, x)
	s.AddLowerE(ca, x) // duplicate
	s.AddUpperE(x, cb) // upper only: not a lower node
	got := s.LowerNodes()
	if len(got) != 1 || got[0] != ca {
		t.Errorf("LowerNodes = %v, want [a]", got)
	}
}

func TestTermsInDepthAndLimit(t *testing.T) {
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	o := sig.MustDeclare("o", 1)
	s := NewSystem(TrivialAlgebra{}, sig, Options{})
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddLowerE(s.Constant(a), x)
	s.AddLowerE(s.Cons(o, x), y)
	s.AddLowerE(s.Cons(o, y), z)
	s.Solve()

	bank := terms.NewBank(sig)
	// Depth 1 at z: the o(o(a)) term needs depth 3.
	if got := s.TermsIn(z, bank, 1, 0); len(got) != 0 {
		t.Errorf("depth-1 terms at z = %d, want 0", len(got))
	}
	if got := s.TermsIn(z, bank, 3, 0); len(got) != 1 {
		t.Errorf("depth-3 terms at z = %d, want 1", len(got))
	}
	// A self-loop through o would be infinite; depth bounds it.
	s.AddLowerE(s.Cons(o, z), z)
	s.Solve()
	got := s.TermsIn(z, bank, 4, 0)
	if len(got) == 0 {
		t.Error("recursive terms should enumerate up to the depth bound")
	}
	// Limit caps the enumeration.
	if got := s.TermsIn(z, bank, 6, 2); len(got) > 2 {
		t.Errorf("limit ignored: %d terms", len(got))
	}
}

func TestEntailedTermInNegative(t *testing.T) {
	mon := oneBitMonoid(t)
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	x := s.Var("x")
	cNode := s.Constant(cCons)
	fg := annotOf(mon, "g")
	s.AddLower(cNode, x, fg)
	s.Solve()

	bank := terms.NewBank(sig)
	cfg := bank.MustMk(cCons, monoid.FuncID(fg))
	cfk := bank.MustMk(cCons, monoid.FuncID(annotOf(mon, "k")))
	if !s.EntailedTermIn(cfg, x, bank, []CNode{cNode}) {
		t.Error("c^g should be entailed in x")
	}
	if s.EntailedTermIn(cfk, x, bank, []CNode{cNode}) {
		t.Error("c^k must not be entailed in x")
	}
}

func TestSourcesAtDeterministic(t *testing.T) {
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	b := sig.MustDeclare("b", 0)
	s := NewSystem(TrivialAlgebra{}, sig, Options{})
	x := s.Var("x")
	s.AddLowerE(s.Constant(b), x)
	s.AddLowerE(s.Constant(a), x)
	s.Solve()
	got1 := s.SourcesAt(x)
	got2 := s.SourcesAt(x)
	if len(got1) != 2 || len(got2) != 2 {
		t.Fatalf("SourcesAt = %v", got1)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Error("SourcesAt should be deterministic")
		}
	}
}

// The cycle budget bounds detection: the search pops at most cycleBudget
// variables, so an ε-ring closes into one representative when its
// closing edge's path back fits that, and is left as it is when not.
func TestCycleBudget(t *testing.T) {
	ring := func(n int) *System {
		sig := terms.NewSignature()
		s := NewSystem(TrivialAlgebra{}, sig, Options{})
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = s.Fresh("v")
		}
		for i := range vars {
			s.AddVarE(vars[i], vars[(i+1)%n])
		}
		s.Solve()
		return s
	}
	for _, c := range []struct{ n, collapsed int }{
		{32, 31},
		{cycleBudget + 1, cycleBudget}, // a path of exactly cycleBudget variables
		{cycleBudget + 2, 0},
		{200, 0},
	} {
		if got := ring(c.n).Stats().Collapsed; got != c.collapsed {
			t.Errorf("%d-ring: %d variables collapsed, want %d", c.n, got, c.collapsed)
		}
	}
}

// A collapse can nest: merging one variable of a cycle replays its
// edges on the representative, and a replayed edge can close a second
// cycle, collapsed before the first one's remaining variables. Here x → y
// closes y → b → x, and replaying b → c closes c → d → x; the first
// cycle's y must still be merged after the second collapse.
func TestNestedCollapse(t *testing.T) {
	s := NewSystem(TrivialAlgebra{}, terms.NewSignature(), Options{})
	x, y, b, c, d := s.Var("x"), s.Var("y"), s.Var("b"), s.Var("c"), s.Var("d")
	s.AddVarE(c, d)
	s.AddVarE(d, x)
	s.AddVarE(y, b)
	s.AddVarE(b, x) // before b → c, so the search from y reaches x through it
	s.AddVarE(b, c)
	if s.Stats().Collapsed != 0 {
		t.Fatalf("test premise: %d variables collapsed before the cycle closes", s.Stats().Collapsed)
	}
	s.AddVarE(x, y)
	s.Solve()
	for _, v := range []VarID{y, b, c, d} {
		if s.Rep(v) != s.Rep(x) {
			t.Errorf("%s not merged with x", s.VarName(v))
		}
	}
	if got := s.Stats().Collapsed; got != 4 {
		t.Errorf("%d variables collapsed, want 4", got)
	}
}

// Two separately-built constraint fragments combine correctly (the
// separate-analysis capability of bidirectional solving, §5.1).
func TestSeparateAnalysisFragments(t *testing.T) {
	mon := privMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)
	s := NewSystem(alg, sig, Options{})

	// "Library" fragment, solved before the client exists: an annotated
	// path from its entry to its exit.
	libIn, libOut := s.Var("libIn"), s.Var("libOut")
	s.AddVar(libIn, libOut, annotOf(mon, "execl"))
	s.Solve()

	// "Client" fragment arrives later and links against the library.
	mainV, after := s.Var("main"), s.Var("after")
	pc := s.Constant(pcCons)
	s.AddLowerE(pc, mainV)
	s.AddVar(mainV, libIn, annotOf(mon, "seteuid0"))
	s.AddVarE(libOut, after)
	s.Solve()

	if !s.ConstEntailed(pc, after) {
		t.Error("separately analyzed fragments should compose")
	}
}

func TestHeadAnnots(t *testing.T) {
	mon := oneBitMonoid(t)
	sig := terms.NewSignature()
	o := sig.MustDeclare("o", 1)
	p := sig.MustDeclare("p", 1)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	fg := annotOf(mon, "g")
	s.AddLower(s.Cons(o, x), z, fg)
	s.AddLower(s.Cons(o, y), z, Annot(mon.Identity()))
	s.AddLower(s.Cons(p, x), z, fg)
	s.Solve()

	if got := s.HeadAnnots(o, z); len(got) != 2 {
		t.Errorf("HeadAnnots(o,z) = %v, want two annotations", got)
	}
	if !s.HeadEntailed(o, z) {
		t.Error("o-headed term with accepting g should be entailed")
	}
	if got := s.HeadAnnots(p, z); len(got) != 1 || got[0] != fg {
		t.Errorf("HeadAnnots(p,z) = %v", got)
	}
	q := sig.MustDeclare("q", 0)
	if s.HeadEntailed(q, z) {
		t.Error("no q-headed terms in z")
	}
}

func TestForwardVarsWithConst(t *testing.T) {
	mon := privMonoid(t)
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	_ = c // unreachable from pc
	pc := s.Constant(pcCons)
	s.AddLowerE(pc, a)
	s.AddVar(a, b, annotOf(mon, "seteuid0", "execl"))

	fw, err := s.SolveForward([]CNode{pc})
	if err != nil {
		t.Fatal(err)
	}
	vars := fw.VarsWithConst(pc)
	if len(vars) != 2 {
		t.Errorf("VarsWithConst = %v, want [a b]", vars)
	}
	acc := fw.VarsWithConstAccepting(pc)
	if len(acc) != 1 || acc[0] != b {
		t.Errorf("VarsWithConstAccepting = %v, want [b]", acc)
	}
}

// Dead-class pruning (§3.1 / T^{M^sub}) preserves all accepting queries
// while discarding never-accepting flows.
func TestPruneDeadPreservesEntailment(t *testing.T) {
	// L = {ab}: the composition b·a is dead.
	mon := abMonoid(t)
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)

	build := func(prune bool) (*System, CNode, VarID, VarID) {
		s := NewSystem(FuncAlgebra{mon}, sig, Options{PruneDead: prune})
		x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
		cn := s.Constant(cCons)
		s.AddLowerE(cn, x)
		fa, _ := mon.FuncOfNames("a")
		fb, _ := mon.FuncOfNames("b")
		s.AddVar(x, y, Annot(fb))               // "b": a live substring of ab
		s.AddVar(y, z, Annot(fb))               // "bb": dead — not a substring
		s.AddVar(x, z, Annot(mon.Then(fa, fb))) // ab: accepting
		s.Solve()
		return s, cn, y, z
	}
	pruned, cn, y, z := build(true)
	full, cn2, y2, z2 := build(false)

	// Entailment agrees.
	if pruned.ConstEntailed(cn, z) != full.ConstEntailed(cn2, z2) {
		t.Error("pruning changed entailment")
	}
	if !pruned.ConstEntailed(cn, z) {
		t.Error("ab flow should be accepting")
	}
	// The live "b" fact at y survives pruning.
	if !pruned.Flows(cn, y) || !full.Flows(cn2, y2) {
		t.Error("the live b fact should be kept by both")
	}
	// The dead "bb" fact at z is present unpruned, absent pruned.
	if got := len(full.ConstAnnots(cn2, z2)); got != 2 {
		t.Errorf("unpruned solver should see ab and bb at z: %d annots", got)
	}
	if got := len(pruned.ConstAnnots(cn, z)); got != 1 {
		t.Errorf("pruned solver should keep only ab at z: %d annots", got)
	}
	if pruned.Stats().Reach >= full.Stats().Reach {
		t.Error("pruning should reduce fact count")
	}
}

// abMonoid: L = {ab} exactly.
func abMonoid(t testing.TB) *monoid.Monoid {
	t.Helper()
	alpha := dfa.NewAlphabet("a", "b")
	d := dfa.NewDFA(alpha, 3, 0)
	a, _ := alpha.Lookup("a")
	b, _ := alpha.Lookup("b")
	d.SetTransition(0, a, 1)
	d.SetTransition(1, b, 2)
	d.SetAccept(2)
	m, err := monoid.Build(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Forward solving with pruning stays within the prefix domain T^{M^pre}.
func TestForwardPruneDead(t *testing.T) {
	mon := abMonoid(t)
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{PruneDead: true})
	x, y := s.Var("x"), s.Var("y")
	cn := s.Constant(cCons)
	fb, _ := mon.FuncOfNames("b")
	s.AddLowerE(cn, x)
	s.AddVar(x, y, Annot(fb)) // "b" is not a prefix of ab
	fw, err := s.SolveForward(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Flows(cn, y) {
		t.Error("forward pruning should discard non-prefix facts")
	}
}

func TestSystemDOT(t *testing.T) {
	mon := oneBitMonoid(t)
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	oCons := sig.MustDeclare("o", 1)
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	s.AddLower(s.Constant(cCons), x, annotOf(mon, "g"))
	s.AddVarE(x, y)
	s.AddUpperE(y, s.Cons(oCons, z))
	s.AddProjE(oCons, 0, y, z)
	s.Solve()
	dot := s.DOT("")
	for _, want := range []string{"digraph", "shape=box", "style=dashed", "style=dotted", "o^-1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
