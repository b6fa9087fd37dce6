package gosrc

import (
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/pdm"
)

// Focused translation tests for the trickier Go constructs.

func actions(t *testing.T, src string) []string {
	t.Helper()
	prog, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	g := minic.MustBuild(prog)
	var names []string
	for _, n := range g.Nodes {
		if n.Kind == minic.NAction {
			names = append(names, n.Call.Name)
		}
	}
	return names
}

func TestMethodReceiverBecomesArg0(t *testing.T) {
	prog := MustTranslate(`
package p

func main() {
	mu.Lock()
	s.buf.Flush()
}
`)
	var calls []*minic.CallExpr
	for _, st := range prog.ByName["main"].Body {
		es, ok := st.(*minic.ExprStmt)
		if !ok {
			continue
		}
		calls = append(calls, minic.Calls(es.X, nil)...)
	}
	if len(calls) != 2 {
		t.Fatalf("got %d calls", len(calls))
	}
	if calls[0].Name != "Lock" || calls[0].Args[0].Render() != "mu" {
		t.Errorf("call 0 = %s(%s)", calls[0].Name, calls[0].Args[0].Render())
	}
	if calls[1].Name != "Flush" || calls[1].Args[0].Render() != "s.buf" {
		t.Errorf("call 1 = %s(%s)", calls[1].Name, calls[1].Args[0].Render())
	}
}

func TestDeferLIFOOrder(t *testing.T) {
	names := actions(t, `
package p

func main() {
	defer first()
	defer second()
	work()
}
`)
	// work, then deferred in LIFO: second, first.
	want := []string{"work", "second", "first"}
	if len(names) != len(want) {
		t.Fatalf("actions = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("actions = %v, want %v", names, want)
		}
	}
}

func TestDeferBeforeEachReturn(t *testing.T) {
	prog := MustTranslate(`
package p

func f() int {
	defer cleanup()
	if c() {
		return one()
	}
	return two()
}
`)
	g := minic.MustBuild(prog)
	// cleanup must be REACHABLE twice (once per return); the end-of-body
	// expansion is dead here because every path returns explicitly.
	preds := map[int]int{}
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			preds[s]++
		}
	}
	reachable, total := 0, 0
	for _, n := range g.Nodes {
		if n.Kind == minic.NAction && n.Call.Name == "cleanup" {
			total++
			if preds[n.ID] > 0 {
				reachable++
			}
		}
	}
	if reachable != 2 {
		t.Errorf("cleanup reachable %d times (of %d emitted), want 2", reachable, total)
	}
}

func TestRangeLoopMayRepeat(t *testing.T) {
	prog := MustTranslate(`
package p

func main() {
	for range items() {
		body()
	}
	after()
}
`)
	g := minic.MustBuild(prog)
	var bodyN *minic.Node
	for _, n := range g.Nodes {
		if n.Kind == minic.NAction && n.Call.Name == "body" {
			bodyN = n
		}
	}
	if bodyN == nil {
		t.Fatal("body missing")
	}
	// body must be in a cycle (range loops repeat).
	seen := map[int]bool{}
	stack := []int{bodyN.ID}
	cyclic := false
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Nodes[id].Succs {
			if s == bodyN.ID {
				cyclic = true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	if !cyclic {
		t.Error("range body should loop")
	}
}

func TestSelectAllBranches(t *testing.T) {
	names := actions(t, `
package p

func main() {
	select {
	case <-ch:
		a()
	case x := <-other:
		b(x)
	default:
		c()
	}
}
`)
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !has[want] {
			t.Errorf("select branch %s missing from actions %v", want, names)
		}
	}
}

func TestTypeSwitch(t *testing.T) {
	names := actions(t, `
package p

func main() {
	switch v := x.(type) {
	case int:
		a(v)
	default:
		b(v)
	}
}
`)
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["a"] || !has["b"] {
		t.Errorf("type switch branches missing: %v", names)
	}
}

func TestGoStmtAndClosures(t *testing.T) {
	prog, err := Translate(`
package p

func main() {
	go worker()
	f := func() {
		inner()
	}
	f()
}
`)
	if err != nil {
		t.Fatal(err)
	}
	g := minic.MustBuild(prog)
	spawned := map[string]bool{}
	has := map[string]bool{}
	for _, n := range g.Nodes {
		switch n.Kind {
		case minic.NSpawn:
			spawned[n.Call.Name] = true
		case minic.NAction:
			has[n.Call.Name] = true
		}
	}
	if !spawned["worker"] {
		t.Error("go statement should become a spawn node")
	}
	if !has["inner"] {
		t.Error("closure body calls should be hoisted to the creation point")
	}
}

func TestIfInitAndIncDec(t *testing.T) {
	names := actions(t, `
package p

func main() {
	if v := get(); v > 0 {
		use(v)
	}
	i++
}
`)
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["get"] || !has["use"] {
		t.Errorf("actions = %v", names)
	}
}

func TestDuplicateMethodNamesBothKept(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "m.go", Src: `
package p

type A struct{}
type B struct{}

func (a A) M() { x() }
func (b B) M() { y() }

func main() { z() }
`}})
	if err != nil {
		t.Fatal(err)
	}
	prog := tr.Prog
	// Both method bodies are analyzed, qualified by receiver type.
	if len(prog.Funcs) != 3 {
		t.Fatalf("got %d funcs, want 3 (A.M, B.M, main)", len(prog.Funcs))
	}
	if prog.ByName["A.M"] == nil || prog.ByName["B.M"] == nil {
		t.Errorf("qualified method names missing: %v", prog.ByName)
	}
	// The bare name is ambiguous: no alias, and a note explains it.
	if prog.ByName["M"] != nil {
		t.Error("ambiguous bare name M must not alias a single method")
	}
	found := false
	for _, n := range tr.Notes {
		if strings.Contains(n.Msg, "method name M") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected ambiguity note, got %v", tr.Notes)
	}
}

func TestUniqueMethodNameAliased(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "m.go", Src: `
package p

type T struct{}

func (t *T) Work() { locked() }

func locked() { mu.Lock() }

func main() {
	var t T
	t.Work()
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	prog := tr.Prog
	if prog.ByName["T.Work"] == nil {
		t.Fatal("qualified name T.Work missing")
	}
	if prog.ByName["Work"] != prog.ByName["T.Work"] {
		t.Error("unique method name must alias its only definition")
	}
}

func TestIndirectCalls(t *testing.T) {
	names := actions(t, `
package p

func main() {
	fns[0](arg())
}
`)
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["arg"] {
		t.Error("argument effects of indirect calls must be kept")
	}
}

func TestLabeledContinueSkipsUnlock(t *testing.T) {
	// continue outer skips mu.Unlock(): the next iteration's Lock is a
	// double lock. The unlabeled-continue translation would miss it.
	src := `
package p

func f() {
outer:
	for {
		mu.Lock()
		for {
			if cond() {
				continue outer
			}
			break
		}
		mu.Unlock()
	}
}
`
	res, err := Check(src, DoubleLockProperty(), DoubleLockEvents(), "f", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Errorf("got %d violations, want 1: %v", len(res.Violations), res.Violations)
	}
}

func TestLabeledBreakLeavesLockHeld(t *testing.T) {
	src := `
package p

func f() {
outer:
	for {
		mu.Lock()
		for {
			if cond() {
				break outer
			}
			break
		}
		mu.Unlock()
	}
	mu.Lock()
	mu.Unlock()
}
`
	res, err := Check(src, DoubleLockProperty(), DoubleLockEvents(), "f", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Errorf("got %d violations, want 1: %v", len(res.Violations), res.Violations)
	}
}

func TestLabeledBreakCleanCode(t *testing.T) {
	// Exiting both loops before locking again is clean: no false positive.
	src := `
package p

func f() {
outer:
	for {
		for {
			if cond() {
				mu.Lock()
				work()
				mu.Unlock()
				break outer
			}
			break
		}
	}
	mu.Lock()
	mu.Unlock()
}
`
	res, err := Check(src, DoubleLockProperty(), DoubleLockEvents(), "f", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("clean labeled break produced %v", res.Violations)
	}
}

func TestLabeledRangeAndSwitch(t *testing.T) {
	// Labels on range loops and switches must build without errors.
	prog := MustTranslate(`
package p

func f(items []int) {
loop:
	for range items {
	sw:
		switch pick() {
		case 1:
			break sw
		case 2:
			break loop
		default:
			continue loop
		}
		after()
	}
}
`)
	if _, err := minic.Build(prog); err != nil {
		t.Fatalf("labeled range/switch: %v", err)
	}
}

func TestGotoProducesNote(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "g.go", Src: `
package p

func f() {
	work()
	goto done
done:
	more()
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range tr.Notes {
		if strings.Contains(n.Msg, "goto") && n.File == "g.go" && n.Line == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected goto note at g.go:6, got %v", tr.Notes)
	}
}

// A //line directive moves no line the translation records: reports
// keep the physical file name, so every definition, statement, call,
// note and ignore line is the file's own line, not the directive's.
func TestLineDirectivesKeepPhysicalLines(t *testing.T) {
	src := `package p

//line generated.y:500
func f() {
	g() //rasc:ignore
	goto done
	/*line other.y:70:1*/ h()
done:
}
`
	tr, err := TranslateFiles([]File{{Name: "a.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	def := tr.Prog.ByName["f"]
	if def.Line != 4 {
		t.Errorf("f defined at line %d, want 4", def.Line)
	}
	var lines []int
	for _, st := range def.Body {
		es := st.(*minic.ExprStmt)
		lines = append(lines, es.Line, es.X.(*minic.CallExpr).Line)
	}
	if want := []int{5, 5, 7, 7}; !reflect.DeepEqual(lines, want) {
		t.Errorf("statement and call lines %v, want %v", lines, want)
	}
	if len(tr.Notes) != 1 || tr.Notes[0].File != "a.go" || tr.Notes[0].Line != 6 {
		t.Errorf("notes %+v, want the goto note at a.go:6", tr.Notes)
	}
	if _, ok := tr.Ignores["a.go"][5]; !ok || len(tr.Ignores["a.go"]) != 1 {
		t.Errorf("ignores %v, want line 5 of a.go", tr.Ignores)
	}
}

// A unit's line table agrees with the FileSet's unadjusted positions at
// every offset of a file, //line directives or not.
func TestLineTableMatchesFileSet(t *testing.T) {
	src := "package p\n\n//line x.go:90\nfunc f() {\n\tg()\n}\n/*line y.go:3:4*/var v = 1\n\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(file.FileStart)
	lines := newLineTable(tf)
	for off := 0; off <= tf.Size(); off++ {
		p := tf.Pos(off)
		if got, want := lines.line(p), fset.PositionFor(p, false).Line; got != want {
			t.Fatalf("offset %d: line %d, want %d", off, got, want)
		}
	}
	if got := lines.line(token.NoPos); got != 0 {
		t.Errorf("NoPos: line %d, want 0", got)
	}
}

func TestTranslateFilesMergesAcrossFiles(t *testing.T) {
	tr, err := TranslateFiles([]File{
		{Name: "a.go", Src: `
package p

func caller() {
	mu.Lock()
	helper()
}
`},
		{Name: "b.go", Src: `
package p

func helper() {
	mu.Lock()
}
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Prog.ByName["caller"].File; got != "a.go" {
		t.Errorf("caller.File = %q", got)
	}
	if got := tr.Prog.ByName["helper"].File; got != "b.go" {
		t.Errorf("helper.File = %q", got)
	}
	res, err := pdm.Check(tr.Prog, DoubleLockProperty(), DoubleLockEvents(), "caller", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("cross-file double lock: got %v", res.Violations)
	}
	// The violation is in helper, whose def maps to b.go.
	if res.Violations[0].Fn != "helper" {
		t.Errorf("violation fn = %s, want helper", res.Violations[0].Fn)
	}
}

func TestTranslateFilesDuplicateFunction(t *testing.T) {
	tr, err := TranslateFiles([]File{
		{Name: "a.go", Src: "package p\n\nfunc main() { x() }\n"},
		{Name: "b.go", Src: "package p\n\nfunc main() { y() }\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Prog.Funcs) != 1 || tr.Prog.ByName["main"].File != "a.go" {
		t.Errorf("first definition must win: %+v", tr.Prog.Funcs)
	}
	found := false
	for _, n := range tr.Notes {
		if strings.Contains(n.Msg, "duplicate definition of main") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected duplicate note, got %v", tr.Notes)
	}
}

func TestIgnoreDirectives(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "i.go", Src: `
package p

func f() {
	a() //rasc:ignore
	b() //rasc:ignore=doublelock
	c() //rasc:ignore=doublelock,fileleak
	d() //rasc:ignored-not-a-directive is ignored
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	ig := tr.Ignores["i.go"]
	if got, ok := ig[5]; !ok || len(got) != 0 {
		t.Errorf("line 5 = %v, want suppress-all", got)
	}
	if got := ig[6]; len(got) != 1 || got[0] != "doublelock" {
		t.Errorf("line 6 = %v", got)
	}
	if got := ig[7]; len(got) != 2 || got[0] != "doublelock" || got[1] != "fileleak" {
		t.Errorf("line 7 = %v", got)
	}
	if _, ok := ig[8]; ok {
		t.Errorf("line 8 must not be a directive: %v", ig[8])
	}
}

func TestGoClosureSynthesized(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "c.go", Src: `
package p

func main() {
	go func(n int) {
		work(n)
	}(compute())
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	g := minic.MustBuild(tr.Prog)
	var spawned string
	sawCompute, sawWork := false, false
	for _, n := range g.Nodes {
		switch n.Kind {
		case minic.NSpawn:
			spawned = n.Call.Name
		case minic.NAction:
			switch n.Call.Name {
			case "compute":
				sawCompute = true
			case "work":
				sawWork = true
			}
		}
	}
	if spawned != "main$go1" {
		t.Errorf("spawned = %q, want synthesized closure main$go1", spawned)
	}
	def, ok := tr.Prog.ByName["main$go1"]
	if !ok || len(def.Params) != 1 || def.Params[0] != "n" {
		t.Fatalf("closure def = %+v", def)
	}
	if !sawCompute {
		t.Error("spawn argument compute() must be evaluated by the spawner")
	}
	if !sawWork {
		t.Error("closure body call work() must be inside the synthesized function")
	}
}

func TestChannelOpsTranslated(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "ch.go", Src: `
package p

func main() {
	ch := make(chan int)
	ch <- produce()
	v := <-ch
	<-ch
	close(ch)
	use(v)
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	g := minic.MustBuild(tr.Prog)
	counts := map[minic.ConcOp]int{}
	assignTo := ""
	for _, n := range g.Nodes {
		counts[n.Conc]++
		if n.Conc == minic.ConcRecv && n.AssignTo != "" {
			assignTo = n.AssignTo
		}
	}
	if counts[minic.ConcSend] != 1 || counts[minic.ConcRecv] != 2 || counts[minic.ConcClose] != 1 {
		t.Errorf("channel ops = %v", counts)
	}
	if assignTo != "v" {
		t.Errorf("recv assign label = %q, want v", assignTo)
	}
}

func TestSharedAccessEvents(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "s.go", Src: `
package p

import "sync"

var mu sync.Mutex
var counter int
var handler func()

func main() {
	counter = 1
	counter++
	local := counter
	if counter > 0 {
		use(local)
	}
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	// mu (sync-shaped) and handler (func-shaped) are not shared data.
	if len(tr.Shared) != 1 || tr.Shared[0] != "counter" {
		t.Fatalf("Shared = %v, want [counter]", tr.Shared)
	}
	g := minic.MustBuild(tr.Prog)
	reads, writes := 0, 0
	for _, n := range g.Nodes {
		switch n.Conc {
		case minic.ConcLoad:
			reads++
		case minic.ConcStore:
			writes++
		}
	}
	// writes: counter = 1, counter++; reads: counter++, local := counter,
	// if counter > 0.
	if writes != 2 || reads != 3 {
		t.Errorf("accesses = %d writes, %d reads; want 2 and 3", writes, reads)
	}
}

func TestLocalShadowNotShared(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "sh.go", Src: `
package p

var counter int

func main() {
	counter := 0
	counter++
	use(counter)
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	g := minic.MustBuild(tr.Prog)
	for _, n := range g.Nodes {
		if n.Kind == minic.NAccess {
			t.Fatal("a shadowing local must not produce access events")
		}
	}
}

func TestOnceDoConditionalCall(t *testing.T) {
	tr, err := TranslateFiles([]File{{Name: "o.go", Src: `
package p

import "sync"

var once sync.Once

func main() {
	once.Do(setup)
	client.Do(req)
}
`}})
	if err != nil {
		t.Fatal(err)
	}
	g := minic.MustBuild(tr.Prog)
	sawSetup, sawClientDo := false, false
	for _, n := range g.Nodes {
		if n.Kind != minic.NAction {
			continue
		}
		switch n.Call.Name {
		case "setup":
			sawSetup = true
		case "Do":
			sawClientDo = true
		}
	}
	if !sawSetup {
		t.Error("once.Do(setup) must conditionally call setup")
	}
	if !sawClientDo {
		t.Error("client.Do(req) must stay an ordinary method call")
	}
}

func TestFileIgnoreCollected(t *testing.T) {
	tr, err := TranslateFiles([]File{
		{Name: "a.go", Src: "//rasc:ignore-file\npackage p\n\nfunc A() { f() }\n"},
		{Name: "b.go", Src: "//rasc:ignore-file=race,fileleak\npackage p\n\nfunc B() { g() }\n"},
		{Name: "c.go", Src: "package p\n\nfunc C() { h() }\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.FileIgnores["a.go"]; !ok || len(got) != 0 {
		t.Errorf("a.go = %v, want suppress-all", got)
	}
	if got := tr.FileIgnores["b.go"]; len(got) != 2 || got[0] != "race" || got[1] != "fileleak" {
		t.Errorf("b.go = %v", got)
	}
	if _, ok := tr.FileIgnores["c.go"]; ok {
		t.Error("c.go has no directive")
	}
}
