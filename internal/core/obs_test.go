package core

import (
	"testing"

	"rasc/internal/obs"
	"rasc/internal/terms"
)

// TestStatsMinusNegativeDelta pins the edge case where the "base" has
// more work than the derived snapshot (e.g. comparing independent
// systems): Minus is a plain component-wise difference and must report
// negative deltas rather than clamping them, so callers can detect a
// mismatched base.
func TestStatsMinusNegativeDelta(t *testing.T) {
	a := Stats{Vars: 2, ConsNodes: 1, Reach: 3, Edges: 1, Collapsed: 0, Clashes: 0}
	b := Stats{Vars: 5, ConsNodes: 4, Reach: 10, Edges: 7, Collapsed: 2, Clashes: 1}
	got := a.Minus(b)
	want := Stats{Vars: -3, ConsNodes: -3, Reach: -7, Edges: -6, Collapsed: -2, Clashes: -1}
	if got != want {
		t.Fatalf("Minus = %+v, want %+v", got, want)
	}
	if zero := a.Minus(a); zero != (Stats{}) {
		t.Fatalf("x.Minus(x) = %+v, want zero", zero)
	}
}

// buildInstrumented builds and solves a small system with a metrics
// bundle attached, returning both.
func buildInstrumented(t *testing.T, reg *obs.Registry) *System {
	t.Helper()
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)
	oCons := sig.MustDeclare("o", 1)

	s := NewSystem(alg, sig, Options{})
	s.SetMetrics(obs.NewSolverMetrics(reg))
	W, X, Y, Z := s.Var("W"), s.Var("X"), s.Var("Y"), s.Var("Z")
	fg := annotOf(mon, "g")

	cNode := s.Constant(cCons)
	s.AddLower(cNode, W, fg)
	s.AddVar(W, X, fg)
	s.AddVarE(X, Y)
	s.AddUpper(Y, s.Cons(oCons, Z), alg.Identity())
	s.Solve()
	return s
}

// TestSolverMetricsMatchStats checks that the hook counters agree with
// the solver's own Stats counters, and that attaching metrics does not
// change what is derived.
func TestSolverMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	s := buildInstrumented(t, reg)
	st := s.Stats()
	snap := reg.Snapshot()

	if got := snap.Counters["solver.edges_added"]; got != int64(st.Edges) {
		t.Errorf("edges_added = %d, want %d", got, st.Edges)
	}
	if got := snap.Counters["solver.reach_inserts"]; got != int64(st.Reach) {
		t.Errorf("reach_inserts = %d, want %d", got, st.Reach)
	}
	if got := snap.Counters["solver.cycle_eliminations"]; got != int64(st.Collapsed) {
		t.Errorf("cycle_eliminations = %d, want %d", got, st.Collapsed)
	}
	// Every reach insert schedules exactly one work item.
	if got := snap.Counters["solver.worklist_pushes"]; got != int64(st.Reach) {
		t.Errorf("worklist_pushes = %d, want %d", got, st.Reach)
	}
	if snap.Gauges["solver.worklist_high_water"] < 1 {
		t.Error("worklist high-water never rose above zero")
	}
	if snap.Counters["solver.compositions"] == 0 {
		t.Error("no compositions counted")
	}

	// Same system without metrics derives identical stats.
	plain := buildInstrumented(t, nil)
	if plain.Stats() != st {
		t.Errorf("stats with metrics %+v != without %+v", st, plain.Stats())
	}
}

// TestCycleElimMetric drives the collapse path with a metrics bundle.
func TestCycleElimMetric(t *testing.T) {
	reg := obs.NewRegistry()
	mon := oneBitMonoid(t)
	sig := terms.NewSignature()
	s := NewSystem(FuncAlgebra{mon}, sig, Options{})
	s.SetMetrics(obs.NewSolverMetrics(reg))
	x, y := s.Var("x"), s.Var("y")
	s.AddVarE(x, y)
	s.AddVarE(y, x)
	s.Solve()
	if s.Stats().Collapsed == 0 {
		t.Fatal("cycle not collapsed")
	}
	if got := reg.Counter("solver.cycle_eliminations").Value(); got != int64(s.Stats().Collapsed) {
		t.Fatalf("cycle_eliminations = %d, want %d", got, s.Stats().Collapsed)
	}
}

// TestFlushSizeMetrics samples the reach-set size histogram: one
// observation per representative variable.
func TestFlushSizeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := buildInstrumented(t, reg)
	s.FlushSizeMetrics()
	reps := 0
	for v := 0; v < s.NumVars(); v++ {
		if s.Rep(VarID(v)) == VarID(v) {
			reps++
		}
	}
	h := reg.Histogram("solver.reach_set_size", obs.DefaultSizeBounds)
	if h.Count() != int64(reps) {
		t.Fatalf("histogram count = %d, want %d representatives", h.Count(), reps)
	}
	// Nil-metrics flush is a no-op.
	plain := buildInstrumented(t, nil)
	plain.FlushSizeMetrics()
}

// TestForkInheritsMetrics checks that a forked system keeps feeding the
// parent's bundle.
func TestForkInheritsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := buildInstrumented(t, reg)
	s.Freeze()
	before := reg.Counter("solver.edges_added").Value()
	f := s.Fork(s.Alg)
	f.AddVarE(f.Var("W"), f.Var("fresh"))
	f.Solve()
	if reg.Counter("solver.edges_added").Value() <= before {
		t.Fatal("fork did not feed the inherited metrics bundle")
	}
}

// TestProvenanceChain checks the rendered derivation chain: oldest
// first, seeded, ending at the queried fact.
func TestProvenanceChain(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	sig := terms.NewSignature()
	cCons := sig.MustDeclare("c", 0)

	s := NewSystem(alg, sig, Options{})
	W, X, Y := s.Var("W"), s.Var("X"), s.Var("Y")
	fg := annotOf(mon, "g")
	cNode := s.Constant(cCons)
	s.AddLower(cNode, W, fg)
	s.AddVar(W, X, fg)
	s.AddVar(X, Y, fg)
	s.Solve()

	prov := s.ProvenanceOf(Y, cNode, fg)
	if len(prov) != 3 {
		t.Fatalf("provenance length = %d, want 3 (%v)", len(prov), prov)
	}
	if prov[0].Rule != ProvSeed || prov[0].Var != W {
		t.Errorf("first hop = %+v, want seed at W", prov[0])
	}
	for _, st := range prov[1:] {
		if st.Rule != ProvEdge {
			t.Errorf("hop %+v, want rule edge", st)
		}
	}
	if last := prov[len(prov)-1]; last.Var != Y || last.Annot != fg {
		t.Errorf("last hop = %+v, want (Y, fg)", last)
	}

	// PN-level provenance agrees for the same top-level fact.
	pn := s.PNReach(cNode)
	pnProv := pn.Provenance(Y, fg)
	if len(pnProv) == 0 || pnProv[0].Rule != ProvSeed {
		t.Fatalf("PN provenance = %v, want seeded chain", pnProv)
	}
	if last := pnProv[len(pnProv)-1]; last.Var != Y {
		t.Errorf("PN last hop = %+v, want Y", last)
	}
}
