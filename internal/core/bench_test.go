package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rasc/internal/core"
	"rasc/internal/dfa"
	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// scenario is one solver-only workload: it isolates one hot path of the
// online solver on a synthetic constraint system, with no front end in
// the loop. setup performs the unmeasured preparation under opts and
// returns the operation to measure; the operation is repeatable (each
// call does the full measured work) and returns the final solver
// statistics, which identify the workload.
type scenario struct {
	name  string
	setup func(opts core.Options) func() core.Stats
}

// scenarios returns the solver benchmark suite.
func scenarios() []scenario {
	return []scenario{
		transitiveChain(2000, 8),
		projectionFanout(64, 64),
		cycleHeavy(64, 32),
		forkReuse(1500, 9, 40),
	}
}

// oneBitMonoid is the 1-bit gen/kill transition monoid of §3.3: three
// elements (ε, gen, kill), enough to exercise annotation composition
// without the annotation table dominating the measurement.
func oneBitMonoid() *monoid.Monoid {
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
		panic(err)
	}
	return m
}

// transitiveChain propagates k constants down an n-variable chain of
// annotated edges: the pure transitive-closure hot path (addEdge /
// addReach with the reach-set lookup on every step).
func transitiveChain(n, k int) scenario {
	return scenario{
		name: fmt.Sprintf("transitive-chain/n=%d,k=%d", n, k),
		setup: func(opts core.Options) func() core.Stats {
			mon := oneBitMonoid()
			g, _ := mon.SymbolFuncByName("g")
			kf, _ := mon.SymbolFuncByName("k")
			return func() core.Stats {
				sig := terms.NewSignature()
				sys := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, opts)
				sys.ReserveVars(n)
				vars := make([]core.VarID, n)
				for i := range vars {
					vars[i] = sys.Anon()
				}
				for i := 0; i+1 < n; i++ {
					a := core.Annot(g)
					if i%2 == 1 {
						a = core.Annot(kf)
					}
					sys.AddVar(vars[i], vars[i+1], a)
				}
				for j := 0; j < k; j++ {
					c := sig.MustDeclare(fmt.Sprintf("c%d", j), 0)
					sys.AddLowerE(sys.Constant(c), vars[0])
				}
				sys.Solve()
				return sys.Stats()
			}
		},
	}
}

// projectionFanout routes m constructor terms through one variable and
// projects them onto f targets: the proj/occur fan-out hot path, where
// every new lower bound triggers a pass over the pending projections.
func projectionFanout(m, f int) scenario {
	return scenario{
		name: fmt.Sprintf("projection-fanout/m=%d,f=%d", m, f),
		setup: func(opts core.Options) func() core.Stats {
			return func() core.Stats {
				sig := terms.NewSignature()
				sys := core.NewSystem(core.TrivialAlgebra{}, sig, opts)
				cc := sig.MustDeclare("c", 1)
				sys.ReserveVars(2*m + f + 1)
				hub := sys.Anon()
				srcs := make([]core.VarID, m)
				for i := range srcs {
					srcs[i] = sys.Anon()
					ki := sig.MustDeclare(fmt.Sprintf("k%d", i), 0)
					sys.AddLowerE(sys.Constant(ki), srcs[i])
					sys.AddLowerE(sys.Cons(cc, srcs[i]), hub)
				}
				for j := 0; j < f; j++ {
					sys.AddProjE(cc, 0, hub, sys.Anon())
				}
				sys.Solve()
				return sys.Stats()
			}
		},
	}
}

// cycleHeavy chains r rings of s ε-edges each, seeding a constant at the
// head: the online cycle-elimination hot path (tryCollapse DFS plus
// union-find merging) dominates, since every ring collapses to one
// representative as its closing edge arrives.
func cycleHeavy(r, s int) scenario {
	return scenario{
		name: fmt.Sprintf("cycle-heavy/rings=%d,size=%d", r, s),
		setup: func(opts core.Options) func() core.Stats {
			return func() core.Stats {
				sig := terms.NewSignature()
				sys := core.NewSystem(core.TrivialAlgebra{}, sig, opts)
				sys.ReserveVars(r * s)
				rings := make([][]core.VarID, r)
				for i := range rings {
					ring := make([]core.VarID, s)
					for j := range ring {
						ring[j] = sys.Anon()
					}
					for j := range ring {
						sys.AddVarE(ring[j], ring[(j+1)%s])
					}
					rings[i] = ring
					if i > 0 {
						sys.AddVarE(rings[i-1][s/2], ring[0])
					}
				}
				c := sig.MustDeclare("seed", 0)
				sys.AddLowerE(sys.Constant(c), rings[0][0])
				sys.Solve()
				return sys.Stats()
			}
		},
	}
}

// forkReuse builds and solves one n-variable base system (unmeasured),
// then measures layering k property-sized deltas of e annotated edges
// each on copy-on-write forks — the driver's shared-skeleton pattern.
// The measured op covers Fork + layer insertion + the incremental solve,
// and returns the summed per-fork delta stats.
func forkReuse(n, k, e int) scenario {
	return scenario{
		name: fmt.Sprintf("fork-reuse/base=%d,forks=%d,layer=%d", n, k, e),
		setup: func(opts core.Options) func() core.Stats {
			mon := oneBitMonoid()
			g, _ := mon.SymbolFuncByName("g")
			sig := terms.NewSignature()
			base := core.NewSystem(core.TrivialAlgebra{}, sig, opts)
			base.ReserveVars(n)
			vars := make([]core.VarID, n)
			for i := range vars {
				vars[i] = base.Anon()
			}
			for i := 0; i+1 < n; i++ {
				base.AddVarE(vars[i], vars[i+1])
			}
			// Sparse back edges give the base some derived structure
			// without collapsing the whole chain into one ring.
			for i := 100; i < n; i += 100 {
				base.AddVarE(vars[i], vars[i-50])
			}
			c := sig.MustDeclare("seed", 0)
			base.AddLowerE(base.Constant(c), vars[0])
			base.Solve()
			base.Freeze()
			baseStats := base.Stats()
			return func() core.Stats {
				var sum core.Stats
				for j := 0; j < k; j++ {
					f := base.Fork(core.FuncAlgebra{Mon: mon})
					for x := 0; x < e; x++ {
						from := vars[(x*37+j*113)%(n-1)]
						f.AddVar(from, vars[(x*53+j*71)%(n-1)], core.Annot(g))
					}
					f.Solve()
					d := f.Stats().Minus(baseStats)
					sum.Vars += d.Vars
					sum.ConsNodes += d.ConsNodes
					sum.Reach += d.Reach
					sum.Edges += d.Edges
					sum.Collapsed += d.Collapsed
					sum.Clashes += d.Clashes
				}
				return sum
			}
		},
	}
}

// Each scenario, run once under the default options, derives exactly
// these solver facts. The counts are deterministic, so an algorithmic
// change to the solver shows here even where timings drown it in noise.
func TestSolverScenarioCounts(t *testing.T) {
	want := map[string]core.Stats{
		"transitive-chain/n=2000,k=8":           {Vars: 2000, Edges: 1999, Reach: 16000, ConsNodes: 8},
		"projection-fanout/m=64,f=64":           {Vars: 130, Edges: 128, Reach: 4288, ConsNodes: 128},
		"cycle-heavy/rings=64,size=32":          {Vars: 2048, Edges: 2111, Reach: 64, ConsNodes: 1, Collapsed: 1984},
		"fork-reuse/base=1500,forks=9,layer=40": {Edges: 360, Reach: 7043},
	}
	for _, sc := range scenarios() {
		if got := sc.setup(core.Options{})(); got != want[sc.name] {
			t.Errorf("%s: got %+v, want %+v", sc.name, got, want[sc.name])
		}
	}
}

// BenchmarkSolver runs the solver scenarios under the default options.
func BenchmarkSolver(b *testing.B) {
	for _, sc := range scenarios() {
		b.Run(sc.name, func(b *testing.B) {
			op := sc.setup(core.Options{})
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
	for _, sc := range scenarios() {
		b.Run(sc.name, func(b *testing.B) {
			op := sc.setup(opts)
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
