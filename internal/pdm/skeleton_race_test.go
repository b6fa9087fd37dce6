package pdm

import (
	"sync"
	"testing"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/spec"
)

// Regression test for the Fork/Stats concurrency contract under the
// access pattern incremental caching produces: with cache-driven job
// skipping, some workers call Skeleton.Check (forking the frozen base)
// while others — whose jobs hit the cache — only read statistics
// (Skeleton.BaseStats for base totals, Result.Sys.Stats for deltas).
// An audit of System.Fork and the layered dedup sets found no write to
// the frozen base after Freeze; this test pins that down under -race
// (the CI build-and-test job runs the suite with -race enabled).
func TestSkeletonCheckConcurrentWithStatsReads(t *testing.T) {
	prog, err := ir.FromMiniC(`
void main() {
    int f = open("a");
    if (f) { use(f); helper(f); }
    close(f);
}
void helper(int f) {
    use(f);
    int g = open("b");
    close(g);
}`)
	if err != nil {
		t.Fatal(err)
	}
	prop := spec.MustCompile(`
start state Closed :
    | open -> Open;
state Open :
    | close -> Closed
    | use_closed -> Error;
accept state Error;
`)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "open", ArgIndex: -1, Symbol: "open", LabelFromAssign: true},
		{Callee: "close", ArgIndex: 0, Symbol: "close", LabelArg: 0},
	}}
	sk, err := BuildSkeleton(prog, "main", core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := sk.BaseStats()

	const workers = 8
	const rounds = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					// A solving worker: fork the skeleton and read the
					// result's stats delta, as runJob does on a miss.
					res, err := sk.Check(prop, events)
					if err != nil {
						t.Error(err)
						return
					}
					if d := res.Sys.Stats().Minus(res.Base); d.Vars < 0 {
						t.Errorf("negative stats delta %+v", d)
						return
					}
				} else {
					// A cache-hitting worker: no solve, only stat reads.
					if got := sk.BaseStats(); got != base {
						t.Errorf("BaseStats changed under concurrent Check: %+v != %+v", got, base)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
