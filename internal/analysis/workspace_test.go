package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rasc/internal/core"
	"rasc/internal/pdm"
)

// layerOutcome is everything a caller reads off one property layer,
// copied out of the Workspace the layer may have filled.
type layerOutcome struct {
	Violations []pdm.Violation
	Stats      core.Stats
	Facts      []core.PNFact
	Open       []string
	May        map[string]bool
}

func outcomeOf(res *pdm.Result, entry string) layerOutcome {
	open, may := res.OpenInstancesAtExitDetail(entry)
	return layerOutcome{
		Violations: res.Violations,
		Stats:      res.Sys.Stats(),
		Facts:      slices.Clone(res.PN.Facts()),
		Open:       open,
		May:        may,
	}
}

// Layering every property checker on every root of the testdata corpus
// and of the benchmark corpora of seeds 1-3 through one pdm.Workspace,
// in a shuffled order that moves between larger and smaller skeletons,
// gives each layer exactly what a fresh fork gives: violations with
// their traces, may flags and provenance (explain on and off), solver
// counts, the PN facts in discovery order and the instances open at
// exit. Every seventh layer is preceded by one that fails midway, an
// event map whose symbols the property's alphabet lacks, which must
// leave the Workspace ready too.
func TestWorkspaceLayersMatchFresh(t *testing.T) {
	checkers := []*Checker{startAccepting()}
	for _, c := range All() {
		if c.Run == nil {
			checkers = append(checkers, c)
		}
	}
	type step struct {
		pkg     string
		c       *Checker
		entry   string
		sk      *pdm.Skeleton
		explain bool
	}
	var steps []step
	load := func(name string, pkg *Package, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range checkers {
			for _, e := range pkg.Roots() {
				se := pkg.skeleton(e, nil)
				if se.err != nil {
					t.Fatal(se.err)
				}
				for _, explain := range []bool{false, true} {
					steps = append(steps, step{name, c, e, se.sk, explain})
				}
			}
		}
	}
	pkg, err := LoadPaths([]string{"testdata/src/..."})
	load("testdata", pkg, err)
	for seed := int64(1); seed <= 3; seed++ {
		pkg, err := LoadFiles(benchShapeCorpus(seed))
		load(fmt.Sprintf("seed%d", seed), pkg, err)
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })

	ws := new(pdm.Workspace)
	grew, shrank, failed := 0, 0, 0
	for i, st := range steps {
		label := fmt.Sprintf("step %d %s %s/%s explain=%v", i, st.pkg, st.c.Name, st.entry, st.explain)
		prop, events := st.c.compiled()
		o := &pdm.Obs{Explain: st.explain}
		if i%7 == 6 {
			// Layer the first checker whose events the skeleton matches
			// and the property's alphabet lacks.
			for _, other := range checkers {
				_, wrong := other.compiled()
				if st.sk.Matches(wrong) {
					if _, err := st.sk.CheckObs(prop, wrong, o, ws); err != nil {
						failed++
						break
					}
				}
			}
		}
		if i > 0 {
			switch prev := steps[i-1].sk.BaseStats().Vars; {
			case prev < st.sk.BaseStats().Vars:
				grew++
			case prev > st.sk.BaseStats().Vars:
				shrank++
			}
		}
		fresh, err := st.sk.CheckObs(prop, events, o, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := outcomeOf(fresh, st.entry)
		res, err := st.sk.CheckObs(prop, events, o, ws)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := outcomeOf(res, st.entry); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: layered in the workspace\n%+v\nfresh fork\n%+v", label, got, want)
		}
	}
	t.Logf("%d layers, %d failed midway; the skeleton grew %d times and shrank %d times", len(steps), failed, grew, shrank)
	if grew == 0 || shrank == 0 || failed == 0 {
		t.Errorf("test premise: want a layer after a smaller and after a larger skeleton, and a failed layer")
	}
}
