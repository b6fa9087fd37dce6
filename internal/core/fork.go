package core

import "maps"

// Fork returns an independent System that starts as a copy of s: the
// fork sees every variable, constructor expression, edge, derived fact
// and clash of s, can be extended and solved on its own, and shares no
// writable storage with s. Only constructor arguments, immutable once
// interned, and the signature stay shared.
//
// Contract: the receiver must be solved — Solve has drained its work
// queue — and nothing may write it while a fork reads it, that is, while
// Fork runs. Concurrent Forks of one base only read it and are safe.
// alg replaces the annotation algebra and must agree with s's algebra on
// every annotation occurring in s; the intended use builds the base with
// identity annotations only, which every Algebra represents as 0, then
// layers property-specific annotated constraints on each fork.
//
// Fork is ForkInto with no destination.
func (s *System) Fork(alg Algebra) *System { return s.ForkInto(nil, alg) }

// ForkInto is Fork into dst's storage. Each array and map of the copy —
// the variable headers; every variable's out, sink, projection and
// argument lists, reach facts, reach index and projection-merge map;
// every constructor's occurrences; the intern, prefix and clash tables;
// the raw-constraint log — refills the one dst already holds where that
// is large enough and is allocated where not, and the worklist and the
// cycle check's DFS arrays are kept and emptied, so a caller that layers
// one fork after another on one destination stops paying for them. A nil
// dst allocates a new System. The cycle check's epoch keeps counting
// across forks, so marks an earlier fork left never match a new search.
//
// Everything dst held before is gone: it must not be s, and no earlier
// result that reads it (a PNResult of it, say) may be used again.
// Headers dst held beyond the new ones are cleared, so an earlier
// layer's per-variable data does not stay reachable through it. The
// receiver's contract is Fork's.
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
		vars:          resize(old.vars, len(s.vars)),
		varIndex:      refill(old.varIndex, s.varIndex),
		cons:          resize(old.cons, len(s.cons)),
		consIndex:     refill(old.consIndex, s.consIndex),
		freshPrefixes: append(old.freshPrefixes[:0], s.freshPrefixes...),
		prefixIndex:   refill(old.prefixIndex, s.prefixIndex),
		clashes:       append(old.clashes[:0], s.clashes...),
		clashSeen:     refill(old.clashSeen, s.clashSeen),
		raw:           append(old.raw[:0], s.raw...),
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
		d, b := &dst.vars[i], &s.vars[i]
		*d = varData{
			name:   b.name,
			prefix: b.prefix,
			uf:     b.uf,
			out:    append(d.out[:0], b.out...),
			sinks:  append(d.sinks[:0], b.sinks...),
			projs:  append(d.projs[:0], b.projs...),
			reach: reachSet{
				facts: append(d.reach.facts[:0], b.reach.facts...),
				table: append(d.reach.table[:0], b.reach.table...),
			},
			argOf:     append(d.argOf[:0], b.argOf...),
			projMerge: refill(d.projMerge, b.projMerge),
		}
	}
	for i := range dst.cons {
		d, b := &dst.cons[i], &s.cons[i]
		*d = consData{cons: b.cons, args: b.args, occur: append(d.occur[:0], b.occur...)}
	}
	return dst
}

// resize returns s with length n: in s's array, with the elements past n
// cleared, when its capacity suffices, and in a new array holding s's
// elements otherwise, so that their storage can be refilled either way.
// Elements past s's length are zero already, since nothing shrinks the
// arrays ForkInto passes.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s)
		return grown
	}
	if len(s) > n {
		clear(s[n:])
	}
	return s[:n]
}

// refill returns m emptied and refilled with src's entries, or a new
// copy of src when m is nil; nil when both are.
func refill[K comparable, V any](m, src map[K]V) map[K]V {
	if m == nil {
		if src == nil {
			return nil
		}
		m = make(map[K]V, len(src))
	} else {
		clear(m)
	}
	maps.Copy(m, src)
	return m
}

// Freeze normalizes the union-find so that later read-only operations
// (VarName, Rep on a compressed path) perform no writes, making a solved
// System safe to read, and to Fork, from multiple goroutines.
//
// Contract: Freeze is idempotent — after one call every union-find
// parent is a root, so further calls (and every find on any path) read
// without writing. It is therefore safe to call again on an
// already-frozen System, even concurrently with Forks of it; the
// snapshot encoder relies on this to re-normalize defensively. Freeze
// does not imply quiescence: it is the caller's job not to add
// constraints afterwards, and a post-Freeze mutation simply requires
// another Freeze before the next concurrent read.
func (s *System) Freeze() {
	for v := range s.vars {
		s.find(VarID(v))
	}
}
