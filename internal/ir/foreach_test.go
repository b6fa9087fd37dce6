package ir

import (
	"fmt"
	"runtime"
	"testing"
)

// ForEach visits every index exactly once, on the caller alone at
// GOMAXPROCS 1 and on several workers at 8, and a panic in one item
// reaches the caller once the workers have stopped.
func TestForEach(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			seen := make([]int, 1000)
			ForEach(len(seen), func(items *int, i int) {
				*items++ // per-worker scratch: never shared, so no race
				seen[i]++
			})
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("index %d visited %d times", i, n)
				}
			}
			defer func() {
				if r := recover(); r != "item 7" {
					t.Errorf("recovered %v, want the item's panic", r)
				}
			}()
			ForEach(100, func(_ *struct{}, i int) {
				if i == 7 {
					panic(fmt.Sprintf("item %d", i))
				}
			})
			t.Error("ForEach returned after a panic")
		})
	}
}
