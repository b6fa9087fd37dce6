package bitvector

import (
	"sort"

	"rasc/internal/minic"
)

// This file implements the classic baseline: interprocedural gen/kill
// dataflow in the functional style of Sharir and Pnueli — per-procedure
// (GEN, KILL) summary transfer functions computed to a fixed point, then a
// reachability phase propagating fact sets, with summaries applied at call
// sites so call/return matching is exact. For distributive gen/kill
// frameworks this computes the meet-over-valid-paths solution, which is
// the reference the constraint-based engine must reproduce.

// bitset is a little-endian bitset.
type bitset []uint64

func newBits(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << uint(i%64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }
func (b bitset) clone() bitset  { c := make(bitset, len(b)); copy(c, b); return c }
func (b bitset) orInto(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
func (b bitset) andInto(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}
func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// transfer is a gen/kill pair: out = (in \ kill) ∪ gen.
type transfer struct {
	gen, kill bitset
}

func identityTransfer(n int) transfer {
	return transfer{gen: newBits(n), kill: newBits(n)}
}

// unreachableTransfer is the bottom element for the join (gen = ∅,
// kill = U): joining it with anything yields the other operand.
func unreachableTransfer(n int) transfer {
	t := transfer{gen: newBits(n), kill: newBits(n)}
	t.kill.fill()
	return t
}

// then composes two transfers in execution order.
func (a transfer) then(b transfer) transfer {
	out := transfer{gen: a.gen.clone(), kill: a.kill.clone()}
	// gen' = (a.gen \ b.kill) ∪ b.gen
	for i := range out.gen {
		out.gen[i] = (a.gen[i] &^ b.kill[i]) | b.gen[i]
		out.kill[i] = (a.kill[i] | b.kill[i]) &^ b.gen[i]
	}
	return out
}

// join is the may-union join: gen ∪, kill ∩. Returns true on change.
func (a *transfer) join(b transfer) bool {
	c1 := a.gen.orInto(b.gen)
	c2 := a.kill.andInto(b.kill)
	return c1 || c2
}

func (a transfer) apply(in bitset) bitset {
	out := in.clone()
	for i := range out {
		out[i] = (in[i] &^ a.kill[i]) | a.gen[i]
	}
	return out
}

// IterViolation is a tainted use found by the baseline.
type IterViolation struct {
	Fn     string
	Line   int
	NodeID int
	Label  string
}

// IterResult is the baseline's output.
type IterResult struct {
	Violations []IterViolation
	// Facts is the analyzed fact universe (labels), sorted.
	Facts []string
}

// CheckIterative runs the summary-based iterative gen/kill taint analysis
// over prog, producing the same judgments as Check for differential
// testing.
func CheckIterative(prog *minic.Program) (*IterResult, error) {
	cfg, err := minic.Build(prog)
	if err != nil {
		return nil, err
	}
	events := TaintEvents()

	// Fact universe and per-node events.
	labelIdx := map[string]int{}
	var labels []string
	intern := func(l string) int {
		if i, ok := labelIdx[l]; ok {
			return i
		}
		labelIdx[l] = len(labels)
		labels = append(labels, l)
		return len(labels) - 1
	}
	type nodeEv struct {
		sym   string
		label int
	}
	nodeEvs := map[int]nodeEv{}
	callTo := map[int]string{} // action node -> defined callee
	for _, n := range cfg.Nodes {
		if n.Kind != minic.NAction {
			continue
		}
		if ev, ok := events.Match(n.Call, n.AssignTo); ok {
			nodeEvs[n.ID] = nodeEv{ev.Symbol, intern(ev.Label)}
		} else if def, defined := prog.Callee(n.Call); defined {
			callTo[n.ID] = def.Name // resolve aliases to the canonical name
		}
	}
	nf := len(labels)
	if nf == 0 {
		return &IterResult{}, nil
	}

	// Node transfers (taken when leaving the node).
	nodeTransfer := func(id int, summaries map[string]transfer) transfer {
		if ev, ok := nodeEvs[id]; ok {
			t := identityTransfer(nf)
			switch ev.sym {
			case "taint":
				t.gen.set(ev.label)
			case "sanitize":
				t.kill.set(ev.label)
			}
			return t
		}
		if callee, ok := callTo[id]; ok {
			if s, ok := summaries[callee]; ok {
				return s
			}
			return unreachableTransfer(nf) // summary not yet computed
		}
		return identityTransfer(nf)
	}

	// Phase 1: procedure summaries to a fixed point.
	summaries := map[string]transfer{}
	for _, fd := range prog.Funcs {
		summaries[fd.Name] = unreachableTransfer(nf)
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range prog.Funcs {
			s := summarize(cfg, fd.Name, nf, summaries, nodeTransfer)
			old := summaries[fd.Name]
			if !s.gen.equal(old.gen) || !s.kill.equal(old.kill) {
				summaries[fd.Name] = s
				changed = true
			}
		}
	}

	// Phase 2: fact sets. IN(node) via worklist over all functions; a
	// call's IN flows into the callee's entry, and past the call through
	// the summary.
	in := make([]bitset, len(cfg.Nodes))
	visited := make([]bool, len(cfg.Nodes))
	for i := range in {
		in[i] = newBits(nf)
	}
	work := []int{cfg.Entry["main"]}
	if _, ok := cfg.Entry["main"]; !ok {
		// No main: analyze every function from an empty context.
		work = nil
		for _, fd := range prog.Funcs {
			work = append(work, cfg.Entry[fd.Name])
		}
	}
	for _, w := range work {
		visited[w] = true
	}
	push := func(id int, facts bitset, wl *[]int) {
		changed := in[id].orInto(facts)
		if changed || !visited[id] {
			visited[id] = true
			*wl = append(*wl, id)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		out := nodeTransfer(id, summaries).apply(in[id])
		for _, succ := range cfg.Nodes[id].Succs {
			push(succ, out, &work)
		}
		if callee, ok := callTo[id]; ok {
			push(cfg.Entry[callee], in[id], &work)
		}
	}

	// Violations: use(l) nodes whose IN contains l.
	res := &IterResult{Facts: append([]string{}, labels...)}
	sort.Strings(res.Facts)
	for _, n := range cfg.Nodes {
		ev, ok := nodeEvs[n.ID]
		if !ok || ev.sym != "use" || !visited[n.ID] {
			continue
		}
		if in[n.ID].has(ev.label) {
			res.Violations = append(res.Violations, IterViolation{
				Fn: n.Fn, Line: n.Line, NodeID: n.ID, Label: labels[ev.label],
			})
		}
	}
	sort.Slice(res.Violations, func(i, j int) bool {
		if res.Violations[i].Line != res.Violations[j].Line {
			return res.Violations[i].Line < res.Violations[j].Line
		}
		return res.Violations[i].Label < res.Violations[j].Label
	})
	return res, nil
}

// summarize computes fn's (GEN, KILL) summary given current summaries.
func summarize(cfg *minic.CFG, fn string, nf int, summaries map[string]transfer,
	nodeTransfer func(int, map[string]transfer) transfer) transfer {
	entry, exit := cfg.Entry[fn], cfg.Exit[fn]
	// pathT[n] = transfer from entry to (before) n.
	pathT := map[int]transfer{}
	pathT[entry] = identityTransfer(nf)
	work := []int{entry}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		cur := pathT[id]
		out := cur.then(nodeTransfer(id, summaries))
		for _, succ := range cfg.Nodes[id].Succs {
			t, ok := pathT[succ]
			if !ok {
				t = unreachableTransfer(nf)
			}
			if t.join(out) || !ok {
				pathT[succ] = t
				work = append(work, succ)
			}
		}
	}
	if t, ok := pathT[exit]; ok {
		return t
	}
	return unreachableTransfer(nf) // exit unreachable (non-returning fn)
}
