package core

import (
	"slices"
	"testing"
)

// duplicated finds a repeated entry whether both copies lie in the
// scanned prefix, straddle scanLimit, or lie past it, where the index
// finds them.
func TestDuplicated(t *testing.T) {
	list := make([]edge, 3*scanLimit)
	for i := range list {
		list[i] = edge{VarID(i), Annot(i % 3)}
	}
	if duplicated(list) {
		t.Fatal("a duplicate-free list reported duplicated")
	}
	for _, p := range [][2]int{{0, 1}, {3, scanLimit}, {0, scanLimit + 5}, {scanLimit + 2, len(list) - 1}} {
		l := slices.Clone(list)
		l[p[1]] = l[p[0]]
		if !duplicated(l) {
			t.Errorf("entries %d and %d equal, not reported", p[0], p[1])
		}
	}
}
