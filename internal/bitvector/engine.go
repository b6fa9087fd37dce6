package bitvector

import (
	"fmt"
	"slices"
	"sort"

	"rasc/internal/minic"
)

// This file is the interprocedural gen/kill engine, in the functional
// style of Sharir and Pnueli. Phase 1 computes, to a fixed point and
// callees first, each function's path transfers from its entry to every
// node, and so its (GEN, KILL) summary; a call applies its callee's
// summary, so every return is matched with its call, and a call to a
// function that cannot return has no flow past it, as in §6.1's
// constraint generation. Phase 2 propagates fact sets from the roots to
// every function's entry through the reached calls. The facts before a
// node are its path transfer applied to its function's entry facts: for
// gen/kill frameworks, the meet over valid paths. The taint baseline
// (CheckIterative) and the Go analyzer's lock facts run on it.
//
// A transfer is 2w words, gen then kill: out = (in \ kill) ∪ gen. Phase 2
// carries a fact set X as a transfer from ∅, whose gen half is X: "t, then
// u" applies u to it, and the join of two adds their facts. Per-node data
// sits in slots: each function's node range, after the slots of the
// functions before it.

// Index returns the position in funcs, which must be ascending, of the
// function whose node range holds node, or -1.
func Index(funcs []minic.FuncRange, node int) int {
	i := sort.Search(len(funcs), func(i int) bool { return funcs[i].Hi > node })
	if i < len(funcs) && funcs[i].Lo <= node {
		return i
	}
	return -1
}

// Problem is one interprocedural gen/kill problem over a CFG.
type Problem struct {
	CFG *minic.CFG
	// Funcs is the function set, ascending, from CFG.Funcs: an entry's
	// call-graph closure, or every function. No node outside it is read.
	Funcs []minic.FuncRange
	// Facts is the size of the fact universe.
	Facts int
	// Callee resolves a call node to the function of the set it calls,
	// "" for every other node.
	Callee func(n *minic.Node) string
	// Effect returns the facts node n, not a call, generates and kills
	// on leaving it.
	Effect func(n *minic.Node) (gen, kill []int)
	// Roots are the functions whose entries hold Seed.
	Roots []string
	Seed  []int
}

// Solution is a solved Problem.
type Solution struct {
	funcs []minic.FuncRange
	base  []int // per function: its first slot
	w     int
	seen  []bool   // per slot: reached from its function's entry
	path  []uint64 // per slot: the transfer from its function's entry
	live  []bool   // per function: a valid path from a root enters it
	entry []uint64 // per function: the facts at its entry, from ∅
}

// Reached reports whether a valid path from a root reaches node.
func (s *Solution) Reached(node int) bool {
	f := Index(s.funcs, node)
	return f >= 0 && s.live[f] && s.seen[s.base[f]+node-s.funcs[f].Lo]
}

// Has reports whether fact holds before node on some valid path from a
// root.
func (s *Solution) Has(node, fact int) bool {
	if !s.Reached(node) {
		return false
	}
	f := Index(s.funcs, node)
	t, i := s.path[2*s.w*(s.base[f]+node-s.funcs[f].Lo):], fact/64
	return (s.entry[2*s.w*f+i]&^t[s.w+i]|t[i])&(1<<uint(fact%64)) != 0
}

// index returns the position in p.Funcs of the function named name.
func (p *Problem) index(name string) (int32, bool) {
	entry, ok := p.CFG.Entry[name]
	f := Index(p.Funcs, entry)
	return int32(f), ok && f >= 0
}

// solver is one solve's state.
type solver struct {
	Problem
	Solution
	roots   []int32   // the roots' positions in Funcs
	effect  []int32   // per slot: the offset of its effect in effects, or -1
	callee  []int32   // per slot: the function it calls, or -1
	effects []uint64  // the transfers of the nodes with an effect
	callers [][]int32 // per function: the functions that call it
	sums    []uint64  // per function: its summary
	returns []bool    // per function: its exit is reachable
	out     []uint64
}

// Solve solves p. It panics, naming the root or the call, when a root
// or a call's callee lies outside p.Funcs: only a caller bug gets there,
// and the solve would otherwise fail far from it or silently seed the
// wrong function.
func Solve(p Problem) *Solution {
	w, nf := (p.Facts+63)/64, len(p.Funcs)
	s := &solver{Problem: p, callers: make([][]int32, nf), sums: make([]uint64, 2*w*nf),
		returns: make([]bool, nf), out: make([]uint64, 2*w)}
	for _, r := range p.Roots {
		f, ok := p.index(r)
		if !ok {
			panic(fmt.Sprintf("bitvector: root %s is not a function of the problem", r))
		}
		s.roots = append(s.roots, f)
	}
	s.Solution = Solution{funcs: p.Funcs, base: make([]int, nf+1), w: w}
	for f, fn := range p.Funcs {
		s.base[f+1] = s.base[f] + fn.Hi - fn.Lo
	}
	slots := s.base[nf]
	s.seen, s.path = make([]bool, slots), make([]uint64, 2*w*slots)
	s.effect, s.callee = make([]int32, slots), make([]int32, slots)
	for f, fn := range p.Funcs {
		for id := fn.Lo; id < fn.Hi; id++ {
			n, at := p.CFG.Nodes[id], s.base[f]+id-fn.Lo
			s.effect[at], s.callee[at] = -1, -1
			if name := p.Callee(n); name != "" {
				c, ok := p.index(name)
				if !ok {
					panic(fmt.Sprintf("bitvector: node %d of %s calls %s, which is not a function of the problem", id, n.Fn, name))
				}
				s.callee[at] = c
				if k := len(s.callers[c]); k == 0 || s.callers[c][k-1] != int32(f) {
					s.callers[c] = append(s.callers[c], int32(f))
				}
			} else if gen, kill := p.Effect(n); gen != nil || kill != nil {
				s.effect[at] = int32(len(s.effects))
				t := make([]uint64, 2*w)
				for _, g := range gen {
					t[g/64] |= 1 << uint(g%64)
				}
				for _, k := range kill {
					t[w+k/64] |= 1 << uint(k%64)
				}
				s.effects = append(s.effects, t...)
			}
		}
	}
	s.summaries()
	s.propagate()
	sol := s.Solution // a copy, so that the solver's own slices can go
	return &sol
}

// summaries runs phase 1: every function in the call graph's postorder,
// then again the callers of every function whose summary changes.
func (s *solver) summaries() {
	order, dirty := make([]int, 0, len(s.Funcs)), make([]bool, len(s.Funcs))
	var dfs func(f int)
	dfs = func(f int) {
		dirty[f] = true
		for _, c := range s.callee[s.base[f]:s.base[f+1]] {
			if c >= 0 && !dirty[c] {
				dfs(int(c))
			}
		}
		order = append(order, f)
	}
	for f := range dirty {
		if !dirty[f] {
			dfs(f)
		}
	}
	for slices.Contains(dirty, true) {
		for _, f := range order {
			if dirty[f] {
				dirty[f] = false
				if s.summarize(f) {
					for _, c := range s.callers[f] {
						dirty[c] = true
					}
				}
			}
		}
	}
}

// summarize recomputes f's path transfers from its callees' current
// summaries and reports whether f's summary changed.
func (s *solver) summarize(f int) bool {
	fn, w2 := s.Funcs[f], 2*s.w
	path, seen := s.path[w2*s.base[f]:w2*s.base[f+1]], s.seen[s.base[f]:s.base[f+1]]
	clear(seen)
	clear(path[:w2])
	seen[0] = true
	out := s.out
	for stack := []int{0}; len(stack) > 0; {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		copy(out, path[i*w2:(i+1)*w2])
		if e := s.effect[s.base[f]+i]; e >= 0 {
			then(out, s.effects[e:int(e)+w2])
		}
		if c := int(s.callee[s.base[f]+i]); c >= 0 {
			if !s.returns[c] {
				continue
			}
			then(out, s.sums[c*w2:(c+1)*w2])
		}
		for _, succ := range s.CFG.Nodes[fn.Lo+i].Succs {
			j := succ - fn.Lo
			if t := path[j*w2 : (j+1)*w2]; !seen[j] {
				seen[j] = true
				copy(t, out)
			} else if !join(t, out) {
				continue
			}
			stack = append(stack, j)
		}
	}
	exit := s.CFG.Exit[fn.Name] - fn.Lo
	sum, t := s.sums[f*w2:(f+1)*w2], path[exit*w2:(exit+1)*w2]
	if !seen[exit] || s.returns[f] && slices.Equal(sum, t) {
		return false
	}
	s.returns[f] = true
	copy(sum, t)
	return true
}

// propagate runs phase 2: a reached call's facts flow into its callee's
// entry.
func (s *solver) propagate() {
	w := s.w
	s.live, s.entry = make([]bool, len(s.Funcs)), make([]uint64, 2*w*len(s.Funcs))
	var work []int
	enter := func(f int, x []uint64) {
		if join(s.entry[2*w*f:2*w*(f+1)], x) || !s.live[f] {
			s.live[f] = true
			work = append(work, f)
		}
	}
	x := make([]uint64, 2*w)
	for _, fact := range s.Seed {
		x[fact/64] |= 1 << uint(fact%64)
	}
	for _, r := range s.roots {
		enter(int(r), x)
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for at := s.base[f]; at < s.base[f+1]; at++ {
			if c := s.callee[at]; c >= 0 && s.seen[at] {
				copy(x, s.entry[2*w*f:2*w*(f+1)])
				then(x, s.path[2*w*at:2*w*(at+1)])
				enter(int(c), x)
			}
		}
	}
}

// then composes transfer t with u, in place: t becomes "t, then u".
func then(t, u []uint64) {
	w := len(t) / 2
	for i := 0; i < w; i++ {
		t[i], t[w+i] = t[i]&^u[w+i]|u[i], (t[w+i]|u[w+i])&^u[i]
	}
}

// join merges transfer u into t, for a node that two paths reach: the
// facts either generates, and those both kill. It reports a change.
func join(t, u []uint64) bool {
	w, changed := len(t)/2, false
	for i := 0; i < w; i++ {
		g, k := t[i]|u[i], t[w+i]&u[w+i]
		changed = changed || g != t[i] || k != t[w+i]
		t[i], t[w+i] = g, k
	}
	return changed
}
