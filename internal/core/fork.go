package core

import "maps"

// clip caps a slice at its length so that appending through the returned
// header always reallocates instead of writing into backing storage that
// a forked base still shares.
func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// Fork returns an independent System layered on a frozen snapshot of s:
// the fork sees every variable, constructor expression, edge, derived
// fact and clash of s, can be extended and solved on its own, and never
// writes back into s. Large per-variable arrays are shared copy-on-write
// (appends reallocate; the reach index and the list indexes are copied
// on first write) and the intern and clash tables are shared through
// read-only base layers, so forking costs one pass over the variable
// headers rather than a rebuild of the derivation.
//
// Contract: the receiver must be quiescent — Solve has drained its work
// queue — and must not be mutated (or queried through PNReach, whose
// union-find accesses compress paths) after the first Fork. Concurrent
// Forks of the same frozen base are safe. alg replaces the annotation
// algebra and must agree with s's algebra on every annotation occurring
// in s; the intended use builds the base with identity annotations only,
// which every Algebra represents as 0, then layers property-specific
// annotated constraints on each fork.
//
// Fork is ForkInto with no destination.
func (s *System) Fork(alg Algebra) *System { return s.ForkInto(nil, alg) }

// ForkInto is Fork into dst's storage: the variable headers, the
// constructor table, the raw-constraint log, the worklist, the intern
// overlays and the cycle check's DFS arrays are copied or reset into the
// arrays dst already holds where they are large enough, and allocated
// where not, so a caller that layers one fork after another on one
// destination stops paying for them. A nil dst allocates a new System.
// The cycle check's epoch keeps counting across forks, so marks an
// earlier fork left never match a new search.
//
// Everything dst held before is gone: it must not be s, no System may
// have been forked from it, and no earlier result that reads it (a
// PNResult of it, say) may be used again. Headers dst held beyond the
// new ones are cleared, so an earlier layer's per-variable data does not
// stay reachable through it. The receiver's contract is Fork's.
func (s *System) ForkInto(dst *System, alg Algebra) *System {
	if len(s.work) > 0 {
		panic("core: Fork of an unsolved System (call Solve first)")
	}
	if dst == s {
		panic("core: ForkInto a System's own storage")
	}
	if dst == nil {
		dst = new(System)
	}
	old := *dst
	*dst = System{
		Alg:           alg,
		Sig:           s.Sig,
		opts:          s.opts,
		nameFn:        s.nameFn,
		vars:          copyInto(old.vars, s.vars),
		cons:          copyInto(old.cons, s.cons),
		freshPrefixes: clip(s.freshPrefixes),
		prefixIndex:   maps.Clone(s.prefixIndex),
		varIndex:      s.varIndex.fork(old.varIndex.own),
		consIndex:     s.consIndex.fork(old.consIndex.own),
		clashSeen:     s.clashSeen.fork(old.clashSeen.own),
		clashes:       clip(s.clashes),
		raw:           copyInto(old.raw, s.raw),
		work:          old.work[:0],
		dfsMark:       old.dfsMark,
		dfsPrev:       old.dfsPrev,
		dfsStack:      old.dfsStack[:0],
		dfsEpoch:      old.dfsEpoch,
		nEdges:        s.nEdges,
		nReach:        s.nReach,
		nCollapsed:    s.nCollapsed,
		metrics:       s.metrics,
	}
	if dst.work == nil {
		dst.work = make([]workItem, 0, 64)
	}
	for i := range dst.vars {
		vd := &dst.vars[i]
		vd.out = clip(vd.out)
		vd.sinks = clip(vd.sinks)
		vd.projs = clip(vd.projs)
		vd.argOf = clip(vd.argOf)
		vd.reach.facts = clip(vd.reach.facts)
		vd.reach.shared = true
		if vd.projMerge != nil {
			vd.projMerge = maps.Clone(vd.projMerge)
		}
	}
	for i := range dst.cons {
		// args are immutable after interning and stay shared.
		dst.cons[i].occur = clip(dst.cons[i].occur)
	}
	return dst
}

// copyInto returns a copy of src in dst's array when its capacity
// suffices, in a new array of src's length otherwise. The elements dst
// held beyond src's length are cleared; those past dst's length are zero
// already, since nothing shrinks the arrays ForkInto passes.
func copyInto[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	} else {
		if len(dst) > len(src) {
			clear(dst[len(src):])
		}
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// Freeze normalizes the union-find so that later read-only operations
// (VarName, Rep on a compressed path, Fork's header copies) perform no
// writes, making a solved System safe to Fork from multiple goroutines.
//
// Contract: Freeze is idempotent — after one call every union-find
// parent is a root, so further calls (and every find on any path) read
// without writing. It is therefore safe to call again on an
// already-frozen System, even concurrently with Forks of it; the
// snapshot encoder relies on this to re-normalize defensively. Freeze
// does not imply quiescence: it is the caller's job not to add
// constraints afterwards (Fork's contract), and a post-Freeze mutation
// simply requires another Freeze before the next Fork.
func (s *System) Freeze() {
	for v := range s.vars {
		s.find(VarID(v))
	}
}
