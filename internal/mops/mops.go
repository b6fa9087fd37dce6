// Package mops reimplements the baseline pushdown model checker that the
// paper compares against in §8 (Table 1): MOPS by Chen, Dean and Wagner.
// The program is modeled as a pushdown system whose control states are the
// states of the property automaton and whose stack records the return
// addresses of unreturned calls; reachability of an accepting control
// state is computed with the canonical post* P-automaton saturation
// procedure (Bouajjani/Esparza/Maler 1997; Schwoon 2002).
//
// This engine and the regularly-annotated-set-constraint engine (package
// pdm) answer the same question on the same programs, which is exactly the
// comparison Table 1 reports.
package mops

import (
	"fmt"
	"sort"

	"rasc/internal/dfa"
	"rasc/internal/minic"
	"rasc/internal/spec"
)

// ruleKind classifies PDS rules.
type ruleKind int

const (
	rulePop  ruleKind = iota // <p,γ> → <p',ε>   (function return)
	ruleStep                 // <p,γ> → <p',γ'>  (intraprocedural step)
	rulePush                 // <p,γ> → <p',γ'γ''> (call: push return addr)
)

type rule struct {
	kind   ruleKind
	p2     int
	g2, g3 int
}

type ruleKey struct {
	p int
	g int
}

// PDS is a pushdown system over int control states and int stack symbols.
type PDS struct {
	NumControls int
	NumSymbols  int
	Rules       map[ruleKey][]rule
}

// AddPop adds <p,γ> → <p2,ε>.
func (s *PDS) AddPop(p, g, p2 int) { s.add(p, g, rule{rulePop, p2, -1, -1}) }

// AddStep adds <p,γ> → <p2,γ2>.
func (s *PDS) AddStep(p, g, p2, g2 int) { s.add(p, g, rule{ruleStep, p2, g2, -1}) }

// AddPush adds <p,γ> → <p2,γ2 γ3>.
func (s *PDS) AddPush(p, g, p2, g2, g3 int) { s.add(p, g, rule{rulePush, p2, g2, g3}) }

func (s *PDS) add(p, g int, r rule) {
	if s.Rules == nil {
		s.Rules = map[ruleKey][]rule{}
	}
	k := ruleKey{p, g}
	s.Rules[k] = append(s.Rules[k], r)
}

const epsSym = -1

type trans struct {
	from, sym, to int
}

// PostStar computes the post* P-automaton for the single initial
// configuration <p0, g0>. The returned automaton accepts exactly the
// stacks w such that <p, w> is reachable, reading w from state p to the
// final state.
type PostStar struct {
	pds   *PDS
	final int
	// mid[p2<<32|g2] = intermediate state for push rules.
	mid map[int64]int
	// numStates counts control + mid + final states.
	numStates int
	rel       map[trans]bool
	out       [][]struct{ sym, to int }
	epsInto   [][]int
}

// NewPostStar saturates post* from <p0, g0>.
func NewPostStar(pds *PDS, p0, g0 int) *PostStar {
	ps := &PostStar{pds: pds, mid: map[int64]int{}, rel: map[trans]bool{}}
	ps.numStates = pds.NumControls
	// Pre-create mid states for every push rule head.
	for _, rs := range pds.Rules {
		for _, r := range rs {
			if r.kind == rulePush {
				key := int64(r.p2)<<32 | int64(r.g2)
				if _, ok := ps.mid[key]; !ok {
					ps.mid[key] = ps.numStates
					ps.numStates++
				}
			}
		}
	}
	ps.final = ps.numStates
	ps.numStates++
	ps.out = make([][]struct{ sym, to int }, ps.numStates)
	ps.epsInto = make([][]int, ps.numStates)

	var work []trans
	add := func(t trans) {
		if ps.rel[t] {
			return
		}
		ps.rel[t] = true
		work = append(work, t)
	}
	add(trans{p0, g0, ps.final})

	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if t.sym != epsSym {
			for _, r := range pds.Rules[ruleKey{t.from, t.sym}] {
				switch r.kind {
				case rulePop:
					add(trans{r.p2, epsSym, t.to})
				case ruleStep:
					add(trans{r.p2, r.g2, t.to})
				case rulePush:
					m := ps.mid[int64(r.p2)<<32|int64(r.g2)]
					add(trans{r.p2, r.g2, m})
					add(trans{m, r.g3, t.to})
				}
			}
			// Earlier ε-transitions into t.from simulate this edge.
			for _, p2 := range ps.epsInto[t.from] {
				add(trans{p2, t.sym, t.to})
			}
			ps.out[t.from] = append(ps.out[t.from], struct{ sym, to int }{t.sym, t.to})
		} else {
			ps.epsInto[t.to] = append(ps.epsInto[t.to], t.from)
			for _, e := range ps.out[t.to] {
				add(trans{t.from, e.sym, e.to})
			}
		}
	}
	return ps
}

// adj returns the full adjacency of the saturated automaton, including
// ε-transitions.
func (ps *PostStar) adj() [][]int {
	out := make([][]int, ps.numStates)
	for t := range ps.rel {
		out[t.from] = append(out[t.from], t.to)
	}
	return out
}

// Reachable reports whether some configuration with control state p is
// reachable (p can read some stack, possibly empty, to the final state).
func (ps *PostStar) Reachable(p int) bool {
	adj := ps.adj()
	seen := make([]bool, ps.numStates)
	stack := []int{p}
	seen[p] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == ps.final {
			return true
		}
		for _, to := range adj[s] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return false
}

// TopSymbols returns the stack-top symbols γ of reachable configurations
// with control state p: transitions (p, γ, q) where q reaches the final
// state.
func (ps *PostStar) TopSymbols(p int) []int {
	canFinish := ps.coReach()
	set := map[int]bool{}
	for _, e := range ps.out[p] {
		if e.sym != epsSym && canFinish[e.to] {
			set[e.sym] = true
		}
	}
	out := make([]int, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// coReach marks states that can reach the final state (the final state
// itself counts, and a state with an accepting run of length ≥ 0).
func (ps *PostStar) coReach() []bool {
	rev := make([][]int, ps.numStates)
	for t := range ps.rel {
		rev[t.to] = append(rev[t.to], t.from)
	}
	seen := make([]bool, ps.numStates)
	stack := []int{ps.final}
	seen[ps.final] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// NumTrans returns the number of saturated transitions, a work measure.
func (ps *PostStar) NumTrans() int { return len(ps.rel) }

// Result is the outcome of a MOPS-style check.
type Result struct {
	// Violating reports whether an accepting (error) control state is
	// reachable.
	Violating bool
	// ErrorNodes are CFG node ids at the top of the stack in error
	// configurations (the program points in the error state), ascending.
	ErrorNodes []int
	// Trans is the size of the saturated P-automaton.
	Trans int
}

// Check model-checks prog against the property with the post*-saturation
// engine. Parametric properties are not supported (MOPS instantiates
// properties per resource by hand; see §6.4).
func Check(prog *minic.Program, prop *spec.Property, events *minic.EventMap, entry string) (*Result, error) {
	if entry == "" {
		entry = "main"
	}
	entryDef, ok := prog.ByName[entry]
	if !ok {
		return nil, fmt.Errorf("mops: entry function %q not defined", entry)
	}
	entry = entryDef.Name // resolve aliases to the canonical name
	if prop.IsParametric() {
		return nil, fmt.Errorf("mops: parametric properties unsupported by the baseline checker")
	}
	pds, cfg, err := buildPDS(prog, prop, events)
	if err != nil {
		return nil, err
	}
	m := prop.Machine
	_ = cfg

	ps := NewPostStar(pds, int(m.Start), cfg.Entry[entry])
	res := &Result{Trans: ps.NumTrans()}
	errSet := map[int]bool{}
	for q := 0; q < m.NumStates; q++ {
		if !m.Accept[q] {
			continue
		}
		if ps.Reachable(q) {
			res.Violating = true
			for _, g := range ps.TopSymbols(q) {
				errSet[g] = true
			}
		}
	}
	for g := range errSet {
		res.ErrorNodes = append(res.ErrorNodes, g)
	}
	sort.Ints(res.ErrorNodes)
	return res, nil
}

// buildPDS constructs the pushdown system of a program for a property,
// classifying each CFG node exactly like the constraint engine (§6.1).
func buildPDS(prog *minic.Program, prop *spec.Property, events *minic.EventMap) (*PDS, *minic.CFG, error) {
	cfg := minic.MustBuild(prog)
	m := prop.Machine
	pds := &PDS{NumControls: m.NumStates, NumSymbols: len(cfg.Nodes)}
	for _, n := range cfg.Nodes {
		var sym dfa.Symbol = -1
		isCall := false
		var callee string
		if n.Kind == minic.NAction {
			if ev, ok := events.Match(n.Call, n.AssignTo); ok {
				s, ok := prop.Symbol(ev.Symbol)
				if !ok {
					return nil, nil, fmt.Errorf("mops: event symbol %q not in property alphabet", ev.Symbol)
				}
				sym = s
			} else if def, defined := prog.Callee(n.Call); defined {
				isCall = true
				callee = def.Name // resolve aliases to the canonical name
			}
		}
		switch {
		case isCall:
			for _, succ := range n.Succs {
				for q := 0; q < m.NumStates; q++ {
					pds.AddPush(q, n.ID, q, cfg.Entry[callee], succ)
				}
			}
		case n.Kind == minic.NExit:
			for q := 0; q < m.NumStates; q++ {
				pds.AddPop(q, n.ID, q)
			}
		default:
			for _, succ := range n.Succs {
				for q := 0; q < m.NumStates; q++ {
					q2 := q
					if sym >= 0 {
						q2 = int(m.Delta[q][sym])
					}
					pds.AddStep(q, n.ID, q2, succ)
				}
			}
		}
	}
	return pds, cfg, nil
}

// ChopLines computes the interprocedural danger chop of a program: the
// source lines of action statements that lie on some violating run
// (post*-reachable configurations that are in pre* of an accepting
// control state). The counterpart of pdm.DangerPoints, exact across
// calls and returns.
func ChopLines(prog *minic.Program, prop *spec.Property, events *minic.EventMap, entry string) ([]int, error) {
	if entry == "" {
		entry = "main"
	}
	entryDef, ok := prog.ByName[entry]
	if !ok {
		return nil, fmt.Errorf("mops: entry function %q not defined", entry)
	}
	entry = entryDef.Name // resolve aliases to the canonical name
	if prop.IsParametric() {
		return nil, fmt.Errorf("mops: parametric properties unsupported")
	}
	pds, cfg, err := buildPDS(prog, prop, events)
	if err != nil {
		return nil, err
	}
	post := NewPostStar(pds, int(prop.Machine.Start), cfg.Entry[entry])
	nodeSet := map[int]bool{}
	for q := 0; q < prop.Machine.NumStates; q++ {
		if !prop.Machine.Accept[q] {
			continue
		}
		pre := NewPreStar(pds, q)
		for _, n := range DangerNodes(pds, post, pre) {
			nodeSet[n] = true
		}
	}
	seen := map[int]bool{}
	var lines []int
	for id := range nodeSet {
		n := cfg.Nodes[id]
		if n.Kind != minic.NAction || seen[n.Line] {
			continue
		}
		seen[n.Line] = true
		lines = append(lines, n.Line)
	}
	sort.Ints(lines)
	return lines, nil
}
