package core

import "slices"

// Constraint-list dedup. A representative's out edges, sinks and
// projections never hold an entry twice, so each constraint fires once.
// A new entry is checked against the representative's own list: by a
// scan while the list is short, and through an open-addressed index,
// kept the way reachSet keeps its fact index, once it is long. Dedup
// keys on the representative at insertion time, as the list itself
// does; a collapsed variable's lists move to its representative through
// the same checks (union).

// scanLimit is the longest list that dedup scans; a longer one is
// probed through its variable's listIndexes.
const scanLimit = 16

// The list kinds, indexing listIndexes.lists.
const (
	listOut = iota
	listSinks
	listProjs
)

// listEntry is an element type of a deduplicated constraint list.
type listEntry interface {
	edge | sinkRef | projRef
	hash() uint32
}

func (e edge) hash() uint32    { return reachHash(CNode(e.to), e.a) }
func (k sinkRef) hash() uint32 { return reachHash(k.cn, k.a) }
func (p projRef) hash() uint32 {
	return reachHash(CNode(p.to), p.a) ^ uint32(p.cons)*0xc2b2ae35 ^ uint32(p.idx)
}

// listIndex is an open-addressed index over the first n entries of one
// list: each slot holds a list position plus one, 0 = empty. Lists only
// grow, so an index catches up with the entries appended since its last
// probe instead of being updated on every append.
type listIndex struct {
	table []int32
	n     int
}

// listIndexes holds one variable's list indexes; only a variable with a
// list longer than scanLimit has one. A fork drops them, and each is
// rebuilt on its first probe.
type listIndexes struct {
	lists [3]listIndex
}

// contains reports whether x occurs in list, the kind list of v.
func contains[T listEntry](s *System, v VarID, kind int, list []T, x T) bool {
	if len(list) <= scanLimit {
		return slices.Contains(list, x)
	}
	ix := s.vars[v].index
	if ix == nil {
		ix = new(listIndexes)
		s.vars[v].index = ix
	}
	return indexed(&ix.lists[kind], list, x)
}

// indexed reports whether x occurs in list, first indexing the entries
// appended since ix was last used.
func indexed[T listEntry](ix *listIndex, list []T, x T) bool {
	if 4*len(list) > 3*len(ix.table) {
		n := max(2*len(ix.table), 2*scanLimit)
		for 4*len(list) > 3*n {
			n *= 2
		}
		ix.table, ix.n = make([]int32, n), 0
	}
	mask := uint32(len(ix.table) - 1)
	for ; ix.n < len(list); ix.n++ {
		i := list[ix.n].hash() & mask
		for ix.table[i] != 0 {
			i = (i + 1) & mask
		}
		ix.table[i] = int32(ix.n + 1)
	}
	for i := x.hash() & mask; ; i = (i + 1) & mask {
		slot := ix.table[i]
		if slot == 0 {
			return false
		}
		if list[slot-1] == x {
			return true
		}
	}
}

// duplicated reports whether list holds some entry twice.
func duplicated[T listEntry](list []T) bool {
	var ix listIndex
	for i, x := range list {
		if i <= scanLimit && slices.Contains(list[:i], x) {
			return true
		}
		if i > scanLimit && indexed(&ix, list[:i], x) {
			return true
		}
	}
	return false
}
