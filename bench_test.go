// Benchmark harness regenerating every table and figure experiment of the
// paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for recorded results):
//
//	BenchmarkTable1_*            Table 1: privilege checking, constraint
//	                             engine vs post* baseline, 4 package sizes
//	BenchmarkFig1_OneBitSolve    Figure 1 / §3.3: gen-kill solving
//	BenchmarkFig2_Adversarial    Figure 2 / §4: superexponential monoid
//	BenchmarkSec33_BitvectorMonoid  §3.3: 3^n representative functions
//	BenchmarkSec5_*              §5: bidirectional vs forward vs backward
//	BenchmarkSec64_Parametric    §6.4: substitution environments at scale
//	BenchmarkSec7_BracketDepth   §7 / Figure 10: bracket machines by depth
//	BenchmarkAblation_*          §8's implementation techniques on/off
package rasc

import (
	"fmt"
	"testing"

	"rasc/internal/bitvector"
	"rasc/internal/core"
	"rasc/internal/flow"
	"rasc/internal/minic"
	"rasc/internal/monoid"
	"rasc/internal/mops"
	"rasc/internal/pdm"
	"rasc/internal/synth"
	"rasc/internal/terms"
)

// --- Table 1 ---------------------------------------------------------------

func benchTable1Row(b *testing.B, row synth.Named, engine string) {
	prop := pdm.FullPrivilegeProperty()
	events := pdm.FullPrivilegeEvents()
	// Parse outside the timer: Table 1 reports checking time, and MOPS's
	// own C front end is likewise not what was measured.
	progs := make([]*minic.Program, row.Programs)
	for p := range progs {
		cfg := row.Config
		cfg.Seed += int64(p) * 1000
		progs[p] = minic.MustParse(synth.Generate(cfg))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			switch engine {
			case "rasc":
				if _, err := pdm.Check(prog, prop, events, "", core.Options{}); err != nil {
					b.Fatal(err)
				}
			case "mops":
				if _, err := mops.Check(prog, prop, events, ""); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for _, row := range synth.Table1() {
		for _, engine := range []string{"rasc", "mops"} {
			b.Run(fmt.Sprintf("%s/%s", sanitize(row.Name), engine), func(b *testing.B) {
				benchTable1Row(b, row, engine)
			})
		}
	}
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		if r == ' ' || r == '.' {
			out[i] = '_'
		}
	}
	return string(out)
}

// --- Figure 1 / §3.3: the 1-bit gen/kill language ---------------------------

// BenchmarkFig1_OneBitSolve solves a long annotated chain over M_1bit:
// the composition table makes each transitive step O(1).
func BenchmarkFig1_OneBitSolve(b *testing.B) {
	mon, err := monoid.Build(bitvector.OneBit(), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sig := terms.NewSignature()
				c := sig.MustDeclare("c", 0)
				s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{})
				fg, _ := mon.SymbolFuncByName("g0")
				fk, _ := mon.SymbolFuncByName("k0")
				prev := s.Var("v0")
				s.AddLowerE(s.Constant(c), prev)
				for j := 1; j <= n; j++ {
					cur := s.Fresh("v")
					a := core.Annot(mon.Identity())
					switch j % 3 {
					case 0:
						a = core.Annot(fg)
					case 1:
						a = core.Annot(fk)
					}
					s.AddVar(prev, cur, a)
					prev = cur
				}
				s.Solve()
			}
		})
	}
}

// --- Figure 2 / §4: adversarial machine ------------------------------------

// BenchmarkFig2_Adversarial builds F_M^≡ for the rotate/swap/merge
// machine: |F^≡| = |S|^|S| (4^4 = 256, 5^5 = 3125), the worst case that
// motivates the unidirectional strategies of §5.
func BenchmarkFig2_Adversarial(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("states-%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				m, err := monoid.Build(monoid.Adversarial(n), 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				size = m.Size()
			}
			b.ReportMetric(float64(size), "|F|")
		})
	}
}

// --- §3.3: n-bit product machines ------------------------------------------

func BenchmarkSec33_BitvectorMonoid(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("bits-%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				m, err := monoid.Build(bitvector.Machine(n), 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				size = m.Size()
			}
			b.ReportMetric(float64(size), "|F|")
		})
	}
}

// --- §5: solving strategies --------------------------------------------------

// strategyWorkload builds a dense annotated system over the adversarial
// machine, where bidirectional solving derives up to |F| annotations per
// (source, variable) pair but forward solving only |S| (states) and
// backward only left-congruence classes.
func strategyWorkload(mon *monoid.Monoid, nVars int) (*core.System, core.CNode, []core.VarID) {
	sig := terms.NewSignature()
	c := sig.MustDeclare("c", 0)
	s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{})
	vars := make([]core.VarID, nVars)
	for i := range vars {
		vars[i] = s.Fresh("v")
	}
	cn := s.Constant(c)
	s.AddLowerE(cn, vars[0])
	rot, _ := mon.SymbolFuncByName("rotate")
	swp, _ := mon.SymbolFuncByName("swap")
	mrg, _ := mon.SymbolFuncByName("merge")
	syms := []core.Annot{core.Annot(rot), core.Annot(swp), core.Annot(mrg)}
	for i := 0; i < nVars; i++ {
		for j, a := range syms {
			s.AddVar(vars[i], vars[(i+j+1)%nVars], a)
		}
	}
	return s, cn, vars
}

func BenchmarkSec5_Bidirectional(b *testing.B) {
	mon, err := monoid.Build(monoid.Adversarial(4), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("vars-%d", n), func(b *testing.B) {
			var facts int
			for i := 0; i < b.N; i++ {
				s, _, _ := strategyWorkload(mon, n)
				s.Solve()
				facts = s.Stats().Reach
			}
			b.ReportMetric(float64(facts), "facts")
		})
	}
}

func BenchmarkSec5_Forward(b *testing.B) {
	mon, err := monoid.Build(monoid.Adversarial(4), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("vars-%d", n), func(b *testing.B) {
			var facts int
			for i := 0; i < b.N; i++ {
				s, _, _ := strategyWorkload(mon, n)
				fw, err := s.SolveForward(nil)
				if err != nil {
					b.Fatal(err)
				}
				facts = fw.Facts()
			}
			b.ReportMetric(float64(facts), "facts")
		})
	}
}

func BenchmarkSec5_Backward(b *testing.B) {
	mon, err := monoid.Build(monoid.Adversarial(4), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("vars-%d", n), func(b *testing.B) {
			var facts int
			for i := 0; i < b.N; i++ {
				s, _, vars := strategyWorkload(mon, n)
				bw, err := s.SolveBackward(vars[:1])
				if err != nil {
					b.Fatal(err)
				}
				facts = bw.Facts()
			}
			b.ReportMetric(float64(facts), "facts")
		})
	}
}

// --- §6.4: parametric annotations at scale -----------------------------------

// BenchmarkSec64_Parametric checks the file-state property on programs
// with many distinct descriptors: the lazily-built product (substitution
// environments) versus what an explicit product automaton would cost
// (2^n states).
func BenchmarkSec64_Parametric(b *testing.B) {
	prop := bitvector.TaintProperty()
	_ = prop
	for _, n := range []int{8, 32, 128} {
		src := synth.GenerateTaint(synth.TaintConfig{
			Seed: 9, Functions: 4, StmtsPerFn: 10, CallProb: 0.1,
			Tainted: n / 2, Cleaned: n / 2,
		})
		prog := minic.MustParse(src)
		b.Run(fmt.Sprintf("facts-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bitvector.Check(prog, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSec64_IterativeBaseline is the classic engine on the same
// workloads.
func BenchmarkSec64_IterativeBaseline(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		src := synth.GenerateTaint(synth.TaintConfig{
			Seed: 9, Functions: 4, StmtsPerFn: 10, CallProb: 0.1,
			Tainted: n / 2, Cleaned: n / 2,
		})
		prog := minic.MustParse(src)
		b.Run(fmt.Sprintf("facts-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bitvector.CheckIterative(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §7 / Figure 10: bracket machines by type depth ---------------------------

func BenchmarkSec7_BracketDepth(b *testing.B) {
	for _, d := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("depth-%d", d), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				m, err := monoid.Build(flow.BracketMachine(d), 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				size = m.Size()
			}
			b.ReportMetric(float64(size), "|F|")
		})
	}
}

// BenchmarkSec7_FlowAnalysis runs the full §7 analysis on nested-pair
// programs of growing depth (the §9 observation: the bidirectional
// monoid grows with the largest type).
func BenchmarkSec7_FlowAnalysis(b *testing.B) {
	mkProgram := func(depth int) string {
		// main () : int = ((((1^In, 2), 3), ...)^Outer).1.1...^Out;
		expr := "1^In"
		for i := 0; i < depth; i++ {
			expr = fmt.Sprintf("(%s, %d)", expr, i+2)
		}
		projs := ""
		for i := 0; i < depth; i++ {
			projs += ".1"
		}
		return fmt.Sprintf("main () : int = (%s)%s^Out;\n", expr, projs)
	}
	for _, d := range []int{1, 2, 3} {
		src := mkProgram(d)
		b.Run(fmt.Sprintf("depth-%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := flow.Analyze(src, flow.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ok, err := a.Flows("In", "Out")
				if err != nil || !ok {
					b.Fatalf("flow lost at depth %d: %v", d, err)
				}
			}
		})
	}
}

// --- §8 ablations -------------------------------------------------------------

// ablationWorkload is a loop- and call-heavy program where the
// implementation techniques of §8 matter.
func ablationWorkload() *minic.Program {
	return minic.MustParse(synth.Generate(synth.Config{
		Seed: 77, Functions: 30, StmtsPerFn: 60, CallProb: 0.2,
		BranchProb: 0.2, LoopProb: 0.15, SafePatterns: 6, UnsafePatterns: 2,
	}))
}

func benchAblation(b *testing.B, opts core.Options) {
	prog := ablationWorkload()
	prop := pdm.SimplePrivilegeProperty()
	events := minic.PrivilegeEvents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdm.Check(prog, prop, events, "", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_AllOn(b *testing.B) { benchAblation(b, core.Options{}) }
func BenchmarkAblation_NoCycleElim(b *testing.B) {
	benchAblation(b, core.Options{NoCycleElim: true})
}
func BenchmarkAblation_NoProjMerge(b *testing.B) {
	benchAblation(b, core.Options{NoProjMerge: true})
}
func BenchmarkAblation_NoHashCons(b *testing.B) {
	benchAblation(b, core.Options{NoHashCons: true})
}
func BenchmarkAblation_AllOff(b *testing.B) {
	benchAblation(b, core.Options{NoCycleElim: true, NoProjMerge: true, NoHashCons: true})
}

// --- §8 micro-ablations -------------------------------------------------------
//
// The whole-program ablations above are dominated by the CFG workload's
// shape; these micro-benchmarks isolate constraint patterns where each
// §8 technique is known to matter (the redundancy-heavy graphs of the
// cycle elimination and projection merging papers).

// BenchmarkAblationMicro_CycleElim: chains of small ε-cycles. With
// collapsing, each cycle is one variable and every fact is stored once;
// without, every member of every cycle holds its own copy.
func benchCycleElim(b *testing.B, disable bool) {
	mon, err := monoid.Build(monoid.Adversarial(3), 0)
	if err != nil {
		b.Fatal(err)
	}
	rot, _ := mon.SymbolFuncByName("rotate")
	for i := 0; i < b.N; i++ {
		sig := terms.NewSignature()
		s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{NoCycleElim: disable})
		const cycles = 150
		const size = 4
		var heads []core.VarID
		prev := core.VarID(-1)
		for c := 0; c < cycles; c++ {
			var ring []core.VarID
			for j := 0; j < size; j++ {
				ring = append(ring, s.Fresh("r"))
			}
			for j := 0; j < size; j++ {
				s.AddVarE(ring[j], ring[(j+1)%size])
			}
			if prev >= 0 {
				s.AddVar(prev, ring[0], core.Annot(rot))
			}
			heads = append(heads, ring[0])
			prev = ring[0]
		}
		// Many distinctly-annotated sources at the head.
		for k := 0; k < 12; k++ {
			c := sig.MustDeclare(fmt.Sprintf("c%d", k), 0)
			s.AddLower(s.Constant(c), heads[0], core.Annot(monoid.FuncID(k%mon.Size())))
		}
		s.Solve()
	}
}

func BenchmarkAblationMicro_CycleElimOn(b *testing.B)  { benchCycleElim(b, false) }
func BenchmarkAblationMicro_CycleElimOff(b *testing.B) { benchCycleElim(b, true) }

// BenchmarkAblationMicro_ProjMerge: one variable with many constructed
// sources and many projection sinks. Merging turns K×M rule firings into
// K+M.
func benchProjMerge(b *testing.B, disable bool) {
	mon, err := monoid.Build(monoid.Adversarial(3), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sig := terms.NewSignature()
		pair := sig.MustDeclare("pair", 2)
		a := sig.MustDeclare("a", 0)
		s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{NoProjMerge: disable})
		y := s.Var("Y")
		const k, m = 80, 80
		for j := 0; j < k; j++ {
			x1, x2 := s.Fresh("x1"), s.Fresh("x2")
			s.AddLowerE(s.Constant(a), x1)
			s.AddLower(s.Cons(pair, x1, x2), y, core.Annot(monoid.FuncID(j%mon.Size())))
		}
		for j := 0; j < m; j++ {
			s.AddProjE(pair, 0, y, s.Fresh("z"))
		}
		s.Solve()
	}
}

func BenchmarkAblationMicro_ProjMergeOn(b *testing.B)  { benchProjMerge(b, false) }
func BenchmarkAblationMicro_ProjMergeOff(b *testing.B) { benchProjMerge(b, true) }

// BenchmarkAblationMicro_HashCons: the same constructor expression used
// as an upper bound over and over; hash-consing dedups the sinks.
func benchHashCons(b *testing.B, disable bool) {
	mon, err := monoid.Build(monoid.Adversarial(3), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sig := terms.NewSignature()
		pair := sig.MustDeclare("pair", 2)
		a := sig.MustDeclare("a", 0)
		s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{NoHashCons: disable})
		x := s.Var("X")
		t1, t2 := s.Var("T1"), s.Var("T2")
		for k := 0; k < 30; k++ {
			src1, src2 := s.Fresh("s1"), s.Fresh("s2")
			s.AddLowerE(s.Constant(a), src1)
			s.AddLower(s.Cons(pair, src1, src2), x, core.Annot(monoid.FuncID(k%mon.Size())))
		}
		for k := 0; k < 200; k++ {
			s.AddUpperE(x, s.Cons(pair, t1, t2))
		}
		s.Solve()
	}
}

func BenchmarkAblationMicro_HashConsOn(b *testing.B)  { benchHashCons(b, false) }
func BenchmarkAblationMicro_HashConsOff(b *testing.B) { benchHashCons(b, true) }

// BenchmarkAblationMicro_DeadPrune: §3.1's "no work need be done
// propagating annotations that are necessarily non-accepting" — a dense
// annotated mesh over the bracket alphabet, where most compositions are
// dead classes, solved with and without pruning.
func BenchmarkAblationMicro_DeadPrune(b *testing.B) {
	mon, err := monoid.Build(flow.BracketMachine(2), 0)
	if err != nil {
		b.Fatal(err)
	}
	dead := 0
	for f := 0; f < mon.Size(); f++ {
		if mon.Dead(monoid.FuncID(f)) {
			dead++
		}
	}
	b.Logf("depth-2 bracket monoid: %d/%d classes dead", dead, mon.Size())
	for _, prune := range []bool{true, false} {
		name := "off"
		if prune {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var facts int
			for i := 0; i < b.N; i++ {
				sig := terms.NewSignature()
				c := sig.MustDeclare("c", 0)
				s := core.NewSystem(core.FuncAlgebra{Mon: mon}, sig, core.Options{PruneDead: prune})
				// A dense annotated mesh over the bracket alphabet: most
				// compositions are dead.
				const n = 40
				vars := make([]core.VarID, n)
				for j := range vars {
					vars[j] = s.Fresh("v")
				}
				s.AddLowerE(s.Constant(c), vars[0])
				syms := mon.M.Alpha.Names()
				for j := 0; j < n; j++ {
					for k := 1; k <= 3; k++ {
						f, _ := mon.SymbolFuncByName(syms[(j+k)%len(syms)])
						s.AddVar(vars[j], vars[(j+k)%n], core.Annot(f))
					}
				}
				s.Solve()
				facts = s.Stats().Reach
			}
			b.ReportMetric(float64(facts), "facts")
		})
	}
}

// BenchmarkSec76_Clustering: §7.6 notes that one binary pair constructor
// can outperform two unary field constructors, because each structural
// meet derives both component edges at once. Encode heavy pair traffic
// both ways and compare.
func benchClustering(b *testing.B, clustered bool) {
	for i := 0; i < b.N; i++ {
		sig := terms.NewSignature()
		a := sig.MustDeclare("a", 0)
		s := core.NewSystem(core.TrivialAlgebra{}, sig, core.Options{})
		const pairs = 300
		if clustered {
			pair := sig.MustDeclare("pair", 2)
			for j := 0; j < pairs; j++ {
				x1, x2, y := s.Fresh("x1"), s.Fresh("x2"), s.Fresh("y")
				s.AddLowerE(s.Constant(a), x1)
				s.AddLowerE(s.Cons(pair, x1, x2), y)
				s.AddProjE(pair, 0, y, s.Fresh("z1"))
				s.AddProjE(pair, 1, y, s.Fresh("z2"))
			}
		} else {
			o1 := sig.MustDeclare("o1", 1)
			o2 := sig.MustDeclare("o2", 1)
			for j := 0; j < pairs; j++ {
				x1, x2, y := s.Fresh("x1"), s.Fresh("x2"), s.Fresh("y")
				s.AddLowerE(s.Constant(a), x1)
				s.AddLowerE(s.Cons(o1, x1), y)
				s.AddLowerE(s.Cons(o2, x2), y)
				s.AddProjE(o1, 0, y, s.Fresh("z1"))
				s.AddProjE(o2, 0, y, s.Fresh("z2"))
			}
		}
		s.Solve()
	}
}

func BenchmarkSec76_ClusteredPair(b *testing.B) { benchClustering(b, true) }
func BenchmarkSec76_UnaryFields(b *testing.B)   { benchClustering(b, false) }
