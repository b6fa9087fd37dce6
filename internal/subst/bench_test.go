package subst

import (
	"math/rand"
	"strconv"
	"testing"

	"rasc/internal/monoid"
)

// BenchmarkTableThen composes a fixed seeded stream of parametric file
// events over 64 labels the way the solver does along a path: a running
// left fold, with every 32nd prefix also composed after an earlier one
// (a path rejoining through a call). Each iteration starts from a fresh
// Table, so interning and the composition memo are paid in full.
func BenchmarkTableThen(b *testing.B) {
	mon := fileProperty(b).Mon
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")
	type event struct {
		label string
		f     monoid.FuncID
	}
	r := rand.New(rand.NewSource(1))
	stream := make([]event, 1024)
	for i := range stream {
		stream[i] = event{label: "fd" + strconv.Itoa(r.Intn(64)), f: fOpen}
		if r.Intn(2) == 0 {
			stream[i].f = fClose
		}
	}
	joins := make([]int, len(stream)/32)
	for i := range joins {
		joins[i] = r.Intn(i*32 + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := NewTable(mon)
		prefixes := make([]ID, 0, len(stream))
		acc := tab.Identity()
		for j, ev := range stream {
			acc = tab.Then(acc, tab.Instantiate("x", ev.label, ev.f))
			prefixes = append(prefixes, acc)
			if j%32 == 31 {
				tab.Then(prefixes[joins[j/32]], acc)
			}
		}
	}
}
