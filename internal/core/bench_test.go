package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rasc/internal/core"
	"rasc/internal/corebench"
	"rasc/internal/dfa"
	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// BenchmarkSolver runs the shared solver-only scenarios (see
// internal/corebench) under the default options; cmd/benchgen -core-json
// renders the same suite into BENCH_core.json.
func BenchmarkSolver(b *testing.B) {
	for _, sc := range corebench.Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			op := sc.Setup(core.Options{})
			var st core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = op()
			}
			b.ReportMetric(float64(st.Reach), "reach/op")
			b.ReportMetric(float64(st.Edges), "edges/op")
		})
	}
}

// BenchmarkSolverNoOpt measures the same scenarios with every solver
// optimization disabled, for before/after comparisons of the
// optimizations themselves.
func BenchmarkSolverNoOpt(b *testing.B) {
	opts := core.Options{NoCycleElim: true, NoProjMerge: true, NoHashCons: true}
	for _, sc := range corebench.Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			op := sc.Setup(opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// pnSystem builds a solved system in the pushdown encoding of §6.1. Each
// of nFuncs functions is a chain of nodes variables with a loop back edge
// and up to calls call sites, each calling a random function (recursion
// included) through a unary call-site constructor and the matching
// projection, beside an edge that skips the call. A fifth of the other
// edges carry an event of the Figure 3 privilege machine. The program
// counter pc is seeded at function 0's entry.
func pnSystem(nFuncs, nodes, calls int) (*core.System, core.CNode) {
	alpha := dfa.NewAlphabet("seteuid0", "seteuidN", "execl")
	d := dfa.NewDFA(alpha, 3, 0)
	s0, _ := alpha.Lookup("seteuid0")
	sN, _ := alpha.Lookup("seteuidN")
	ex, _ := alpha.Lookup("execl")
	d.SetTransition(0, s0, 1)
	d.SetTransition(1, sN, 0)
	d.SetTransition(1, ex, 2)
	d.SetAccept(2)
	mon, err := monoid.Build(d.CompleteSelfLoop(), 0)
	if err != nil {
		panic(err)
	}
	var events []core.Annot
	for _, name := range []string{"seteuid0", "seteuidN", "execl"} {
		f, _ := mon.SymbolFuncByName(name)
		events = append(events, core.Annot(f))
	}
	sig := terms.NewSignature()
	s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{})
	r := rand.New(rand.NewSource(1))
	body := make([][]core.VarID, nFuncs)
	for f := range body {
		for i := 0; i < nodes; i++ {
			body[f] = append(body[f], s.Anon())
		}
	}
	ident := s.Alg.Identity()
	for f, vs := range body {
		site := map[int]bool{}
		for c := 0; c < calls; c++ {
			site[1+r.Intn(nodes-2)] = true
		}
		for i := 0; i+1 < nodes; i++ {
			if !site[i] {
				a := ident
				if r.Intn(5) == 0 {
					a = events[r.Intn(len(events))]
				}
				s.AddVar(vs[i], vs[i+1], a)
				continue
			}
			callee := body[r.Intn(nFuncs)]
			o := sig.MustDeclare(fmt.Sprintf("o%d_%d", f, i), 1)
			s.AddLowerE(s.Cons(o, vs[i]), callee[0])
			s.AddProjE(o, 0, callee[nodes-1], vs[i+1])
			s.AddVar(vs[i], vs[i+1], ident)
		}
		s.AddVar(vs[nodes-2], vs[1], ident)
	}
	pc := s.Constant(sig.MustDeclare("pc", 0))
	s.AddLowerE(pc, body[0][0])
	s.Solve()
	return s, pc
}

// BenchmarkPNReach measures the §6.2 query phase on its own: the PN
// reachability of pc over a solved pushdown-shaped system, and the
// per-variable annotation lookups a model checker makes over every node.
func BenchmarkPNReach(b *testing.B) {
	s, pc := pnSystem(300, 24, 3)
	b.ResetTimer()
	var facts int
	for i := 0; i < b.N; i++ {
		pn := s.PNReach(pc)
		for v := 0; v < s.NumVars(); v++ {
			pn.At(core.VarID(v))
		}
		facts = len(pn.Facts())
	}
	b.ReportMetric(float64(facts), "facts/op")
}
