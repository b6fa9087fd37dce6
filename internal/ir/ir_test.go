package ir

import (
	"slices"
	"strings"
	"testing"
)

// diamond: main -> {left, right} -> shared; plus a two-function cycle
// (ping <-> pong) reachable from right, and an unreachable extra.
const diamondSrc = `
void main() {
    left();
    right();
}
void left() {
    shared();
}
void right() {
    shared();
    ping();
}
void shared() {
    work(1);
}
void ping() {
    pong();
}
void pong() {
    ping();
}
void extra() {
    work(2);
}
`

func mustLower(t *testing.T, src string) *Program {
	t.Helper()
	p, err := FromMiniC(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func names(p *Program, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = p.Funcs[id].Name
	}
	return out
}

func TestCallGraphAndSCCs(t *testing.T) {
	p := mustLower(t, diamondSrc)
	if len(p.Funcs) != 7 {
		t.Fatalf("got %d functions", len(p.Funcs))
	}
	main := p.ByName["main"]
	if got := names(p, main.Callees); strings.Join(got, ",") != "left,right" {
		t.Fatalf("main callees = %v", got)
	}
	// ping and pong share an SCC; everyone else is a singleton.
	if p.ByName["ping"].SCC != p.ByName["pong"].SCC {
		t.Fatalf("ping/pong not in one SCC")
	}
	if p.ByName["main"].SCC == p.ByName["left"].SCC {
		t.Fatalf("main and left collapsed")
	}
	// Bottom-up order: every callee SCC precedes its callers.
	for _, f := range p.Funcs {
		for _, c := range f.Callees {
			cs := p.Funcs[c].SCC
			if cs != f.SCC && cs > f.SCC {
				t.Fatalf("SCC order not bottom-up: %s (scc %d) calls %s (scc %d)",
					f.Name, f.SCC, p.Funcs[c].Name, cs)
			}
		}
	}
	if got := names(p, p.Reachable("main")); strings.Join(got, ",") != "main,left,right,shared,ping,pong" {
		t.Fatalf("Reachable(main) = %v", got)
	}
	if got := p.Roots(); strings.Join(got, ",") != "extra,main" {
		t.Fatalf("Roots = %v", got)
	}
}

// Function node ranges partition the CFG in definition order, each
// starting at its function's entry node, and a closure's nodes are
// exactly the nodes of its functions, ascending.
func TestNodeRangesAndClosure(t *testing.T) {
	p := mustLower(t, diamondSrc)
	next := 0
	for _, f := range p.Funcs {
		r := p.Graph.Funcs[f.ID]
		if r.Name != f.Name || r.Lo != next || r.Lo != p.Graph.Entry[f.Name] || r.Hi <= r.Lo {
			t.Fatalf("%s: node range %+v, want it to start at %d, its entry node", f.Name, r, next)
		}
		for _, n := range p.Graph.Nodes[r.Lo:r.Hi] {
			if n.Fn != f.Name {
				t.Fatalf("%s: node %d in its range belongs to %s", f.Name, n.ID, n.Fn)
			}
		}
		next = r.Hi
	}
	if next != len(p.Graph.Nodes) {
		t.Fatalf("node ranges end at %d, CFG has %d nodes", next, len(p.Graph.Nodes))
	}
	for _, entry := range []string{"main", "right", "extra"} {
		in := map[string]bool{}
		for _, name := range names(p, p.Reachable(entry)) {
			in[name] = true
		}
		var want []int
		for _, n := range p.Graph.Nodes {
			if in[n.Fn] {
				want = append(want, n.ID)
			}
		}
		if got := p.ClosureNodes(entry); !slices.Equal(got, want) {
			t.Fatalf("ClosureNodes(%s) = %v, want %v", entry, got, want)
		}
	}
	if got := p.ClosureNodes("nosuch"); got != nil {
		t.Fatalf("ClosureNodes of an undefined entry = %v, want nil", got)
	}
}

func TestFingerprintStability(t *testing.T) {
	a := mustLower(t, diamondSrc)
	b := mustLower(t, diamondSrc)
	for i := range a.Funcs {
		if a.Funcs[i].Fingerprint != b.Funcs[i].Fingerprint {
			t.Fatalf("fingerprint of %s not reproducible", a.Funcs[i].Name)
		}
		if a.Funcs[i].Summary != b.Funcs[i].Summary {
			t.Fatalf("summary of %s not reproducible", a.Funcs[i].Name)
		}
		if a.Funcs[i].Fingerprint.IsZero() || a.Funcs[i].Summary.IsZero() {
			t.Fatalf("unset digest on %s", a.Funcs[i].Name)
		}
	}
}

// Editing one function must change the summaries of exactly its SCC and
// transitive callers; fingerprints change only for the edited function.
func TestSummaryInvalidationFrontier(t *testing.T) {
	before := mustLower(t, diamondSrc)
	// Same-line edit: inserting lines would shift the definitions below
	// and (correctly) invalidate them too.
	after := mustLower(t, strings.Replace(diamondSrc, "work(1);", "work(3);", 1))
	changedFP := map[string]bool{}
	changedSum := map[string]bool{}
	for i := range before.Funcs {
		name := before.Funcs[i].Name
		if before.Funcs[i].Fingerprint != after.Funcs[i].Fingerprint {
			changedFP[name] = true
		}
		if before.Funcs[i].Summary != after.Funcs[i].Summary {
			changedSum[name] = true
		}
	}
	if len(changedFP) != 1 || !changedFP["shared"] {
		t.Fatalf("fingerprints changed: %v, want only shared", changedFP)
	}
	// Dependents of shared: shared, left, right, main. ping/pong/extra
	// must keep their summaries.
	want := map[string]bool{"shared": true, "left": true, "right": true, "main": true}
	if len(changedSum) != len(want) {
		t.Fatalf("summaries changed: %v, want %v", changedSum, want)
	}
	for n := range want {
		if !changedSum[n] {
			t.Fatalf("summary of %s should have changed (changed: %v)", n, changedSum)
		}
	}
	deps := names(before, before.Dependents(before.ByName["shared"].ID))
	if strings.Join(deps, ",") != "main,left,right,shared" {
		t.Fatalf("Dependents(shared) = %v", deps)
	}
}

// A cycle member's edit invalidates the whole SCC plus callers.
func TestSummaryInvalidationThroughCycle(t *testing.T) {
	before := mustLower(t, diamondSrc)
	after := mustLower(t, strings.Replace(diamondSrc, "pong();", "pong(9);", 1))
	var changed []string
	for i := range before.Funcs {
		if before.Funcs[i].Summary != after.Funcs[i].Summary {
			changed = append(changed, before.Funcs[i].Name)
		}
	}
	// ping edited: SCC {ping,pong} plus right and main change.
	if strings.Join(changed, ",") != "main,right,ping,pong" {
		t.Fatalf("changed summaries = %v", changed)
	}
}

// Line numbers are part of the fingerprint: diagnostics carry positions,
// so shifting a body down one line must invalidate it.
func TestFingerprintSensitiveToLines(t *testing.T) {
	a := mustLower(t, "void main() { f(); }\nvoid f() { g(1); }")
	b := mustLower(t, "void main() { f(); }\n\nvoid f() { g(1); }")
	if a.ByName["f"].Fingerprint == b.ByName["f"].Fingerprint {
		t.Fatal("fingerprint ignored a line shift")
	}
}

// Call resolution is part of the fingerprint: defining a previously
// external callee changes the caller's hash even though its text is
// unchanged.
func TestFingerprintSensitiveToResolution(t *testing.T) {
	a := mustLower(t, "void main() { helper(); }")
	b := mustLower(t, "void main() { helper(); }\nvoid helper() { }")
	if a.ByName["main"].Fingerprint == b.ByName["main"].Fingerprint {
		t.Fatal("fingerprint ignored a call-resolution change")
	}
}

func TestFromMiniCRejectsBadSource(t *testing.T) {
	if _, err := FromMiniC("void main( {"); err == nil {
		t.Fatal("expected a parse error")
	}
}
