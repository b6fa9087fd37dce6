package core

// reachFact is one (constructor expression, annotation) fact derived at a
// variable, with the parent that first derived it.
type reachFact struct {
	cn  CNode
	a   Annot
	par parent
}

// reachSet stores a variable's derived facts as an insertion-ordered
// slice plus an open-addressed index, replacing the former
// map[reachKey]parent. The layout buys three things on the solver's
// hottest path: lookups that never allocate, iteration that is
// deterministic (witness parents no longer depend on map order), and a
// representation that a fork copies as two flat arrays.
//
// The zero value is an empty set. Growing the index reuses its array's
// spare capacity, which a fork's copy keeps from the destination's
// earlier layers.
type reachSet struct {
	facts []reachFact
	table []int32 // power-of-two open addressing; fact index + 1, 0 = empty
}

func reachHash(cn CNode, a Annot) uint32 {
	h := uint32(cn)*0x9e3779b1 ^ uint32(a)*0x85ebca77
	return h ^ h>>15
}

func (r *reachSet) size() int { return len(r.facts) }

// lookup returns the recorded parent of (cn, a), if present.
func (r *reachSet) lookup(cn CNode, a Annot) (parent, bool) {
	if len(r.table) == 0 {
		return parent{}, false
	}
	mask := uint32(len(r.table) - 1)
	for i := reachHash(cn, a) & mask; ; i = (i + 1) & mask {
		slot := r.table[i]
		if slot == 0 {
			return parent{}, false
		}
		if f := &r.facts[slot-1]; f.cn == cn && f.a == a {
			return f.par, true
		}
	}
}

func (r *reachSet) has(cn CNode, a Annot) bool {
	_, ok := r.lookup(cn, a)
	return ok
}

// insert adds (cn, a) with parent par, reporting whether it was absent.
func (r *reachSet) insert(cn CNode, a Annot, par parent) bool {
	if r.has(cn, a) {
		return false
	}
	if 4*(len(r.facts)+1) > 3*len(r.table) {
		r.grow()
	}
	r.facts = append(r.facts, reachFact{cn, a, par})
	mask := uint32(len(r.table) - 1)
	i := reachHash(cn, a) & mask
	for r.table[i] != 0 {
		i = (i + 1) & mask
	}
	r.table[i] = int32(len(r.facts))
	return true
}

func (r *reachSet) grow() {
	n := max(2*len(r.table), 8)
	if cap(r.table) >= n {
		r.table = r.table[:n]
		clear(r.table)
	} else {
		r.table = make([]int32, n)
	}
	mask := uint32(n - 1)
	for idx := range r.facts {
		f := &r.facts[idx]
		i := reachHash(f.cn, f.a) & mask
		for r.table[i] != 0 {
			i = (i + 1) & mask
		}
		r.table[i] = int32(idx + 1)
	}
}
