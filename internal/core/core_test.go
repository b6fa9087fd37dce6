package core

import (
	"testing"

	"rasc/internal/dfa"
	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// oneBitMonoid builds the M_1bit machine of Figure 1.
func oneBitMonoid(t testing.TB) *monoid.Monoid {
	t.Helper()
	alpha := dfa.NewAlphabet("g", "k")
	d := dfa.NewDFA(alpha, 2, 0)
	g, _ := alpha.Lookup("g")
	k, _ := alpha.Lookup("k")
	d.SetTransition(0, g, 1)
	d.SetTransition(1, g, 1)
	d.SetTransition(0, k, 0)
	d.SetTransition(1, k, 0)
	d.SetAccept(1)
	m, err := monoid.Build(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// privMonoid builds the Figure 3 privilege machine.
func privMonoid(t testing.TB) *monoid.Monoid {
	t.Helper()
	alpha := dfa.NewAlphabet("seteuid0", "seteuidN", "execl")
	d := dfa.NewDFA(alpha, 3, 0)
	s0, _ := alpha.Lookup("seteuid0")
	sN, _ := alpha.Lookup("seteuidN")
	ex, _ := alpha.Lookup("execl")
	d.SetTransition(0, s0, 1)
	d.SetTransition(1, sN, 0)
	d.SetTransition(1, ex, 2)
	d.SetAccept(2)
	m, err := monoid.Build(d.CompleteSelfLoop(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func annotOf(m *monoid.Monoid, names ...string) Annot {
	f, ok := m.FuncOfNames(names...)
	if !ok {
		panic("unknown symbol")
	}
	return Annot(f)
}

// TestExample24 reproduces Example 2.4 and its §3.1 solved form and §3.2
// entailment query end to end.
func TestExample24(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	oCons := sig.MustDeclare("o", 1)

	s := NewSystem(alg, sig, Options{})
	W, X, Y, Z := s.Var("W"), s.Var("X"), s.Var("Y"), s.Var("Z")
	fg := annotOf(mon, "g")
	ident := alg.Identity()

	cNode := s.Constant(cCons)
	oW := s.Cons(oCons, W)
	oY := s.Cons(oCons, Y)

	s.AddLower(cNode, W, fg) // c^α ⊆^g W
	s.AddLower(oW, X, fg)    // o^β(W) ⊆^g X
	s.AddUpper(X, oY, ident) // X ⊆ o^γ(Y)
	s.AddLower(oY, Z, ident) // o^γ(Y) ⊆ Z
	s.Solve()

	if !s.Consistent() {
		t.Fatalf("unexpected clashes: %v", s.Clashes())
	}

	// Solved form (§3.1): the derived transitive constraint c^α ⊆^{fg} Y,
	// via W ⊆^{fg} Y and f_g ∘ f_g = f_g.
	gotY := s.ConstAnnots(cNode, Y)
	if len(gotY) != 1 || gotY[0] != fg {
		t.Errorf("c's annotations at Y = %v, want [f_g]", gotY)
	}

	// Least solution (Example 2.4): W, Y = {c^fg}; X, Z = {o^fg(c^fg)}.
	bank := terms.NewBank(sig)
	seeds := []CNode{cNode, oW} // the query's f_ε ⊆ α, f_ε ⊆ β
	cfg := bank.MustMk(cCons, monoid.FuncID(fg))
	ofgcfg := bank.MustMk(oCons, monoid.FuncID(fg), cfg)

	for _, tc := range []struct {
		v    VarID
		name string
		want terms.TermID
	}{
		{W, "W", cfg}, {Y, "Y", cfg}, {X, "X", ofgcfg}, {Z, "Z", ofgcfg},
	} {
		got := s.TermsInSeeded(tc.v, bank, 4, 0, seeds)
		if len(got) != 1 || got[0] != tc.want {
			names := make([]string, len(got))
			for i, g := range got {
				names[i] = bank.String(g, mon)
			}
			t.Errorf("%s = %v, want {%s}", tc.name, names, bank.String(tc.want, mon))
		}
	}

	// §3.2 entailment: C1 ∧ f_ε ⊆ α ∧ f_ε ⊆ β ⊨ o^β(c^α) ⊆^{fg} Z.
	// The left side appended f_g is o^{fg}(c^{fg}).
	if !s.EntailedTermIn(ofgcfg, Z, bank, seeds) {
		t.Error("entailment query of §3.2 should hold")
	}
}

// TestSection63Example reproduces the §6.3 privilege example: the path
// pc^fε ⊆ S1 ⊆^{f0} … ⊆^{f2} S6 implies pc^{f_error} ∈ S6.
func TestSection63Example(t *testing.T) {
	mon := privMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)

	s := NewSystem(alg, sig, Options{})
	S := make([]VarID, 7)
	for i := 1; i <= 6; i++ {
		S[i] = s.Var(string(rune('0'+i)) + "_S")
	}
	pc := s.Constant(pcCons)
	f0 := annotOf(mon, "seteuid0")
	f1 := annotOf(mon, "seteuidN")
	f2 := annotOf(mon, "execl")
	e := alg.Identity()

	s.AddLower(pc, S[1], e) // pc ⊆ S1
	s.AddVar(S[1], S[2], f0)
	s.AddVar(S[2], S[3], e)
	s.AddVar(S[2], S[4], e) // else branch
	s.AddVar(S[3], S[5], f1)
	s.AddVar(S[4], S[5], e)
	s.AddVar(S[5], S[6], f2)
	s.Solve()

	// pc reaches S6 with an accepting annotation (through the else branch)
	// and a non-accepting one (through the seteuid(getuid()) branch).
	if !s.ConstEntailed(pc, S[6]) {
		t.Fatal("violation not detected at S6")
	}
	annots := s.ConstAnnots(pc, S[6])
	if len(annots) != 2 {
		t.Fatalf("pc reaches S6 with %d annotations, want 2", len(annots))
	}
	var acc, nonacc int
	for _, a := range annots {
		if alg.Accepting(a) {
			acc++
		} else {
			nonacc++
		}
	}
	if acc != 1 || nonacc != 1 {
		t.Errorf("accepting/nonaccepting = %d/%d, want 1/1", acc, nonacc)
	}
	// No violation before the execl.
	if s.ConstEntailed(pc, S[5]) {
		t.Error("no violation should be reported at S5")
	}

	// The witness path for the violation runs S1 → S2 → S4 → S5 → S6.
	bad := Annot(-1)
	for _, a := range annots {
		if alg.Accepting(a) {
			bad = a
		}
	}
	steps := s.Witness(S[6], pc, bad)
	if len(steps) != 5 {
		t.Fatalf("witness has %d steps, want 5: %+v", len(steps), steps)
	}
	if steps[0].Var != S[1] || steps[len(steps)-1].Var != S[6] {
		t.Error("witness endpoints wrong")
	}
	if steps[2].Var != S[4] {
		t.Errorf("witness should pass through S4 (the else branch), got %v", steps[2].Var)
	}
}

func TestStructuralRule(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	pair := sig.MustDeclare("pair", 2)

	s := NewSystem(alg, sig, Options{})
	X1, X2, Y1, Y2, V := s.Var("X1"), s.Var("X2"), s.Var("Y1"), s.Var("Y2"), s.Var("V")
	ca := s.Constant(a)
	fg := annotOf(mon, "g")

	s.AddLower(ca, X1, alg.Identity())
	s.AddLower(s.Cons(pair, X1, X2), V, alg.Identity())
	s.AddUpper(V, s.Cons(pair, Y1, Y2), fg)
	s.Solve()

	// Structural rule: X1 ⊆^{fg} Y1 (and X2 ⊆^{fg} Y2): the constant in X1
	// appears in Y1 annotated fg.
	got := s.ConstAnnots(ca, Y1)
	if len(got) != 1 || got[0] != fg {
		t.Errorf("a at Y1 = %v, want [f_g]", got)
	}
	if s.Flows(ca, Y2) {
		t.Error("a should not flow to Y2")
	}
}

func TestClashDetection(t *testing.T) {
	alg := TrivialAlgebra{}
	sig := terms.NewSignature()
	c := sig.MustDeclare("c", 1)
	d := sig.MustDeclare("d", 1)

	s := NewSystem(alg, sig, Options{})
	X, Y, V := s.Var("X"), s.Var("Y"), s.Var("V")
	s.AddLowerE(s.Cons(c, X), V)
	s.AddUpperE(V, s.Cons(d, Y))
	s.Solve()

	if s.Consistent() {
		t.Fatal("c(...) ⊆ d(...) must clash")
	}
	cl := s.Clashes()
	if len(cl) != 1 {
		t.Fatalf("got %d clashes, want 1", len(cl))
	}
	if s.ConsOf(cl[0].Src) != c || s.ConsOf(cl[0].Dst) != d {
		t.Error("clash endpoints wrong")
	}
}

func TestProjectionRule(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)
	pair := sig.MustDeclare("pair", 2)

	for _, noMerge := range []bool{false, true} {
		s := NewSystem(alg, sig, Options{NoProjMerge: noMerge})
		X1, X2, Y, Z1, Z2 := s.Var("X1"), s.Var("X2"), s.Var("Y"), s.Var("Z1"), s.Var("Z2")
		ca := s.Constant(a)
		fg := annotOf(mon, "g")
		fk := annotOf(mon, "k")

		s.AddLower(ca, X1, alg.Identity())
		s.AddLower(ca, X2, fk)
		s.AddLower(s.Cons(pair, X1, X2), Y, fg)
		// pair^-1(Y) ⊆ Z1 and pair^-2(Y) ⊆^g Z2.
		s.AddProjE(pair, 0, Y, Z1)
		s.AddProj(pair, 1, Y, Z2, fg)
		s.Solve()

		// Z1 gets a with the pair's path annotation fg.
		if got := s.ConstAnnots(ca, Z1); len(got) != 1 || got[0] != fg {
			t.Errorf("noMerge=%v: a at Z1 = %v, want [f_g]", noMerge, got)
		}
		// Z2: a entered X2 with f_k, pair flowed with f_g, projection adds
		// another f_g: k·g·g acts as f_g.
		want := annotOf(mon, "k", "g", "g")
		if got := s.ConstAnnots(ca, Z2); len(got) != 1 || got[0] != want {
			t.Errorf("noMerge=%v: a at Z2 = %v, want [%s]", noMerge, got, alg.String(want))
		}
	}
}

// A representative's out, sink and projection lists hold every entry
// once: with and without projection merging, when each constraint is
// issued twice, and when a cycle merges two variables that carry the
// same constraints.
func TestListsDuplicateFree(t *testing.T) {
	for _, opts := range []Options{{}, {NoProjMerge: true}} {
		sig := terms.NewSignature()
		pair := sig.MustDeclare("pair", 2)
		s := NewSystem(TrivialAlgebra{}, sig, opts)
		x1, x2, y, z, w := s.Var("x1"), s.Var("x2"), s.Var("y"), s.Var("z"), s.Var("w")
		cn := s.Cons(pair, y, z)
		for range 2 {
			for _, x := range []VarID{x1, x2} {
				s.AddVarE(x, w)
				s.AddUpperE(x, cn)
				s.AddProjE(pair, 0, x, z)
				s.AddLowerE(cn, x)
			}
		}
		s.AddVarE(x1, x2)
		s.AddVarE(x2, x1)
		s.Solve()
		if s.Rep(x1) != s.Rep(x2) {
			t.Fatalf("%+v: test premise: the cycle x1 ⇄ x2 was not collapsed", opts)
		}
		if err := listsDuplicateFree(s); err != nil {
			t.Errorf("%+v: %v", opts, err)
		}
	}
}

func TestCycleElimination(t *testing.T) {
	alg := TrivialAlgebra{}
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)

	run := func(noCE bool) (*System, VarID, CNode) {
		s := NewSystem(alg, sig, Options{NoCycleElim: noCE})
		x, y, z, w := s.Var("x"), s.Var("y"), s.Var("z"), s.Var("w")
		ca := s.Constant(a)
		s.AddVarE(x, y)
		s.AddVarE(y, z)
		s.AddVarE(z, x) // ε-cycle x→y→z→x
		s.AddVarE(z, w)
		s.AddLowerE(ca, y)
		s.Solve()
		return s, w, ca
	}
	sOn, w, ca := run(false)
	if sOn.Stats().Collapsed == 0 {
		t.Error("cycle elimination should collapse the ε-cycle")
	}
	if !sOn.Flows(ca, w) {
		t.Error("flow through collapsed cycle lost")
	}
	sOff, w2, ca2 := run(true)
	if sOff.Stats().Collapsed != 0 {
		t.Error("NoCycleElim should prevent collapsing")
	}
	if !sOff.Flows(ca2, w2) {
		t.Error("flow lost without cycle elimination")
	}
}

// Cycle elimination must not collapse cycles with non-identity
// annotations, and annotated self-loops must saturate rather than loop.
func TestAnnotatedCycleSaturates(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)

	s := NewSystem(alg, sig, Options{})
	x, y := s.Var("x"), s.Var("y")
	ca := s.Constant(a)
	fg := annotOf(mon, "g")
	fk := annotOf(mon, "k")
	s.AddLower(ca, x, alg.Identity())
	s.AddVar(x, y, fg)
	s.AddVar(y, x, fk) // annotated cycle
	s.Solve()

	if s.Stats().Collapsed != 0 {
		t.Error("annotated cycle must not be collapsed")
	}
	// At x: ε (seed), and gk, gkgk, … all equal f_k: exactly {ε, f_k}.
	if got := s.ConstAnnots(ca, x); len(got) != 2 {
		t.Errorf("annotations at x = %v, want 2 distinct", got)
	}
	// At y: g and kg-cycles: {f_g} only (g, gkg=g, …).
	if got := s.ConstAnnots(ca, y); len(got) != 1 || got[0] != fg {
		t.Errorf("annotations at y = %v, want [f_g]", got)
	}
}

func TestOnlineSolving(t *testing.T) {
	mon := privMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)

	s := NewSystem(alg, sig, Options{})
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	pc := s.Constant(pcCons)
	s.AddLowerE(pc, a)
	s.Solve()
	if s.Flows(pc, c) {
		t.Fatal("premature flow")
	}
	// Add the rest online: later constraints must compose with earlier
	// facts (the bidirectional/online property of §5.1).
	s.AddVar(a, b, annotOf(mon, "seteuid0"))
	s.Solve()
	s.AddVar(b, c, annotOf(mon, "execl"))
	s.Solve()
	if !s.ConstEntailed(pc, c) {
		t.Error("online solving lost the violation")
	}
}

func TestPNReachUnmatchedCall(t *testing.T) {
	mon := privMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)
	o1 := sig.MustDeclare("o1", 1)

	s := NewSystem(alg, sig, Options{})
	sMain, fEntry, fBody := s.Var("Smain"), s.Var("Fentry"), s.Var("Fbody")
	pc := s.Constant(pcCons)
	s.AddLowerE(pc, sMain)
	s.AddVar(sMain, sMain, alg.Identity()) // harmless
	// Call: o1(Smain) ⊆ Fentry; the callee executes seteuid0 then execl
	// and never returns.
	s.AddLowerE(s.Cons(o1, sMain), fEntry)
	s.AddVar(fEntry, fBody, annotOf(mon, "seteuid0", "execl"))
	s.Solve()

	// Matched-only query: pc does not (top-level) reach Fbody.
	if s.Flows(pc, fBody) {
		t.Error("pc should not reach Fbody at top level")
	}
	// PN query: pc occurs inside o1(...) at Fbody with the violating word.
	pn := s.PNReach(pc)
	a, ok := pn.AcceptingAt(fBody)
	if !ok {
		t.Fatal("PN reachability missed the unreturned-call violation")
	}
	if !alg.Accepting(a) {
		t.Error("annotation should be accepting")
	}
	// Trace: seed at Smain, wrap through o1, then to Fbody.
	steps := pn.Trace(fBody, a)
	if len(steps) < 2 {
		t.Fatalf("trace too short: %+v", steps)
	}
	if steps[len(steps)-1].Var != fBody {
		t.Error("trace should end at Fbody")
	}
}

func TestPNReachMatchedCallReturn(t *testing.T) {
	mon := privMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)
	o1 := sig.MustDeclare("o1", 1)

	s := NewSystem(alg, sig, Options{})
	sCall, fEntry, fExit, sRet := s.Var("Scall"), s.Var("Fentry"), s.Var("Fexit"), s.Var("Sret")
	pc := s.Constant(pcCons)
	s.AddLowerE(pc, sCall)
	s.AddLowerE(s.Cons(o1, sCall), fEntry)
	s.AddVar(fEntry, fExit, annotOf(mon, "seteuid0"))
	s.AddProjE(o1, 0, fExit, sRet)
	s.Solve()

	// The matched return derives Scall ⊆^{f0} Sret: pc is at Sret with f0
	// at top level (no PN needed).
	got := s.ConstAnnots(pc, sRet)
	if len(got) != 1 || got[0] != annotOf(mon, "seteuid0") {
		t.Errorf("pc at Sret = %v, want [f_0]", got)
	}
	// PN agrees and adds nothing extra at Sret.
	pn := s.PNReach(pc)
	if ann := pn.At(sRet); len(ann) != 1 || ann[0] != got[0] {
		t.Errorf("PN at Sret = %v, want %v", ann, got)
	}
}

func TestHashConsing(t *testing.T) {
	alg := TrivialAlgebra{}
	sig := terms.NewSignature()
	c := sig.MustDeclare("c", 1)

	s := NewSystem(alg, sig, Options{})
	x := s.Var("x")
	if s.Cons(c, x) != s.Cons(c, x) {
		t.Error("hash-consing should share nodes")
	}
	s2 := NewSystem(alg, sig, Options{NoHashCons: true})
	x2 := s2.Var("x")
	if s2.Cons(c, x2) == s2.Cons(c, x2) {
		t.Error("NoHashCons should create fresh nodes")
	}
}

func TestFreshAndNames(t *testing.T) {
	s := NewSystem(TrivialAlgebra{}, terms.NewSignature(), Options{})
	v := s.Var("v")
	if s.Var("v") != v {
		t.Error("Var must intern by name")
	}
	f1, f2 := s.Fresh("t"), s.Fresh("t")
	if f1 == f2 {
		t.Error("Fresh must be unique")
	}
	if s.VarName(v) != "v" {
		t.Error("VarName wrong")
	}
}

func TestConsString(t *testing.T) {
	sig := terms.NewSignature()
	c0 := sig.MustDeclare("k", 0)
	c2 := sig.MustDeclare("p", 2)
	s := NewSystem(TrivialAlgebra{}, sig, Options{})
	x, y := s.Var("x"), s.Var("y")
	if got := s.ConsString(s.Constant(c0)); got != "k" {
		t.Errorf("ConsString = %q", got)
	}
	if got := s.ConsString(s.Cons(c2, x, y)); got != "p(x,y)" {
		t.Errorf("ConsString = %q", got)
	}
}

// Resolution terminates on a dense annotated system (Lemma 3.1); the
// adversarial machine makes the annotation domain large but finite.
func TestTerminationAdversarial(t *testing.T) {
	mon, err := monoid.Build(monoid.Adversarial(3), 0) // 27 functions
	if err != nil {
		t.Fatal(err)
	}
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	a := sig.MustDeclare("a", 0)

	s := NewSystem(alg, sig, Options{})
	const n = 8
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	rot := annotOf(mon, "rotate")
	swp := annotOf(mon, "swap")
	mrg := annotOf(mon, "merge")
	ca := s.Constant(a)
	s.AddLowerE(ca, vars[0])
	for i := 0; i < n; i++ {
		s.AddVar(vars[i], vars[(i+1)%n], rot)
		s.AddVar(vars[i], vars[(i+2)%n], swp)
		s.AddVar(vars[i], vars[(i+3)%n], mrg)
	}
	s.Solve()
	// Every var sees the constant with at most |F| annotations.
	for _, v := range vars {
		if got := len(s.ConstAnnots(ca, v)); got == 0 || got > mon.Size() {
			t.Fatalf("annotation count %d out of range (|F|=%d)", got, mon.Size())
		}
	}
}
