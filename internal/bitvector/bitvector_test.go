package bitvector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/monoid"
)

// §3.3: the n-bit machine's monoid has 3^n representative functions —
// each bit independently ε, gen or kill; composition exploits order
// independence of distinct bits automatically.
func TestMonoidIsThreeToTheN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		m, err := monoid.Build(Machine(n), 1<<20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int(math.Pow(3, float64(n)))
		if m.Size() != want {
			t.Errorf("n=%d: |F^≡| = %d, want %d", n, m.Size(), want)
		}
	}
}

// Order independence (§4): g1·g2 ≡ g2·g1 for distinct bits.
func TestOrderIndependence(t *testing.T) {
	m, err := monoid.Build(Machine(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := m.SymbolFuncByName(GenSym(0))
	g2, _ := m.SymbolFuncByName(GenSym(1))
	k1, _ := m.SymbolFuncByName(KillSym(0))
	if m.Then(g1, g2) != m.Then(g2, g1) {
		t.Error("distinct-bit gens must commute")
	}
	if m.Then(g1, k1) == m.Then(k1, g1) {
		t.Error("same-bit gen/kill must NOT commute")
	}
}

func TestOneBitMatchesFigure1(t *testing.T) {
	d := OneBit()
	if d.NumStates != 2 {
		t.Fatalf("states = %d, want 2", d.NumStates)
	}
	if !d.AcceptsNames("g0") || d.AcceptsNames("g0", "k0") || !d.AcceptsNames("k0", "g0") {
		t.Error("1-bit language wrong")
	}
}

func bothCheck(t *testing.T, src string) (*IterResult, []string) {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := CheckIterative(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cons []string
	for _, v := range res.Violations {
		cons = append(cons, v.Label)
	}
	return iter, cons
}

func TestTaintStraightLine(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    sink(p);
}
`)
	if len(iter.Violations) != 1 || iter.Violations[0].Label != "p" {
		t.Errorf("iterative = %+v, want one violation on p", iter.Violations)
	}
	if len(cons) != 1 || cons[0] != "p" {
		t.Errorf("constraints = %v, want [p]", cons)
	}
}

func TestTaintSanitized(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    sanitize(p);
    sink(p);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative flagged sanitized use: %+v", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints flagged sanitized use: %v", cons)
	}
}

func TestTaintPerVariable(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    int q = source();
    sanitize(p);
    sink(p);
    sink(q);
}
`)
	if len(iter.Violations) != 1 || iter.Violations[0].Label != "q" {
		t.Errorf("iterative = %+v, want [q]", iter.Violations)
	}
	if len(cons) != 1 || cons[0] != "q" {
		t.Errorf("constraints = %v, want [q]", cons)
	}
}

func TestTaintBranch(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    if (c) {
        sanitize(p);
    }
    sink(p);
}
`)
	// May-analysis: the unsanitized path exists.
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestTaintInterprocedural(t *testing.T) {
	iter, cons := bothCheck(t, `
void clean(int v) {
    sanitize(v);
}
void main() {
    int v = source();
    clean(v);
    sink(v);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative missed the interprocedural sanitize: %+v", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints missed the interprocedural sanitize: %v", cons)
	}
}

// Summaries must be context-sensitive: a callee that does nothing to the
// fact must not conflate its two callers.
func TestTaintContextSensitivity(t *testing.T) {
	iter, cons := bothCheck(t, `
void nop(int x) {
    noop(x);
}
void main() {
    int a = source();
    nop(a);
    sanitize(a);
    nop(a);
    sink(a);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative = %+v, want none", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints = %v, want none", cons)
	}
}

func TestTaintUseInsideCallee(t *testing.T) {
	iter, cons := bothCheck(t, `
void consume(int v) {
    sink(v);
}
void main() {
    int v = source();
    consume(v);
}
`)
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestTaintRecursionTerminates(t *testing.T) {
	iter, cons := bothCheck(t, `
void loop(int n) {
    if (n) {
        loop(n - 1);
    }
}
void main() {
    int v = source();
    loop(3);
    sink(v);
}
`)
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestTaintLoopRegen(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int v = source();
    while (c) {
        sanitize(v);
        v = source();
    }
    sink(v);
}
`)
	// Both the zero-iteration path and the regenerated path taint v.
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestNoFacts(t *testing.T) {
	prog := minic.MustParse("void main() { puts(1); }")
	iter, err := CheckIterative(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(iter.Violations) != 0 {
		t.Error("no facts, no violations")
	}
}

func TestMachineBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Machine(0) should panic")
		}
	}()
	Machine(0)
}

// A call to a function that cannot return has no flow past it: the
// source and sink after spin(v) are unreachable, as in the constraint
// generation.
func TestTaintNoFlowPastNonReturningCall(t *testing.T) {
	iter, cons := bothCheck(t, `
void spin(int x) {
    spin(x);
}
void main() {
    int v = 0;
    spin(v);
    v = source();
    sink(v);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative = %+v, want none", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints = %v, want none", cons)
	}
}

// randomTaintProgram writes a program of up to five functions and main
// that call each other at random (recursion and calls that cannot
// return included), with taint, sanitize and use events on three
// variables under branches and loops.
func randomTaintProgram(r *rand.Rand) string {
	nf := 2 + r.Intn(4)
	var b strings.Builder
	var stmts func(depth int)
	stmts = func(depth int) {
		for i := r.Intn(5); i >= 0; i-- {
			v := string("abc"[r.Intn(3)])
			switch k := r.Intn(10); {
			case k < 2:
				fmt.Fprintf(&b, "%s = source();\n", v)
			case k < 3:
				fmt.Fprintf(&b, "sanitize(%s);\n", v)
			case k < 4:
				fmt.Fprintf(&b, "sink(%s);\n", v)
			case k < 7:
				fmt.Fprintf(&b, "f%d(%s);\n", r.Intn(nf), v)
			case k < 9 && depth < 2:
				fmt.Fprintf(&b, "%s (c) {\n", []string{"if", "while"}[k-7])
				stmts(depth + 1)
				b.WriteString("}\n")
			default:
				fmt.Fprintf(&b, "puts(%s);\n", v)
			}
		}
	}
	for f := 0; f < nf; f++ {
		fmt.Fprintf(&b, "void f%d(int a) {\nint b = 0;\nint c = 0;\n", f)
		stmts(0)
		b.WriteString("}\n")
	}
	b.WriteString("void main() {\nint a = 0;\nint b = 0;\nint c = 0;\n")
	stmts(0)
	b.WriteString("}\n")
	return b.String()
}

// The iterative engine and the constraint engine flag the same labels on
// random programs.
func TestIterativeMatchesConstraintsOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		src := randomTaintProgram(r)
		iter, cons := bothCheck(t, src)
		var labels []string
		for _, v := range iter.Violations {
			labels = append(labels, v.Label)
		}
		slices.Sort(labels)
		slices.Sort(cons)
		if labels, cons := slices.Compact(labels), slices.Compact(cons); !slices.Equal(labels, cons) {
			t.Fatalf("iterative flags %v, constraints %v:\n%s", labels, cons, src)
		}
	}
}

// A Problem whose roots or callees leave its function set is a caller
// bug; Solve panics with a message that names the root, or the callee
// and its call node, instead of failing on a -1 index or seeding the
// wrong function.
func TestSolveRejectsNamesOutsideTheSet(t *testing.T) {
	cfg := minic.MustBuild(minic.MustParse(`
void main() { helper(); }
void helper() { work(); }
void other() { }
`))
	call := -1
	for _, n := range cfg.Nodes {
		if n.Kind == minic.NAction && n.Call.Name == "helper" {
			call = n.ID
		}
	}
	callee := func(n *minic.Node) string {
		if n.ID == call {
			return "helper"
		}
		return ""
	}
	noEffect := func(*minic.Node) ([]int, []int) { return nil, nil }
	for _, c := range []struct {
		name  string
		funcs []minic.FuncRange
		roots []string
		want  string
	}{
		{"root outside the set", cfg.Funcs[:2], []string{"other"},
			"bitvector: root other is not a function of the problem"},
		{"root with no entry node", cfg.Funcs, []string{"nosuch"},
			"bitvector: root nosuch is not a function of the problem"},
		{"callee outside the set", cfg.Funcs[:1], []string{"main"},
			fmt.Sprintf("bitvector: node %d of main calls helper, which is not a function of the problem", call)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Fatalf("panic %q, want %q", got, c.want)
				}
			}()
			Solve(Problem{CFG: cfg, Funcs: c.funcs, Facts: 1, Callee: callee, Effect: noEffect, Roots: c.roots})
		})
	}
}
