package pdm

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/spec"
	"rasc/internal/synth"
)

// inPlaceCase is one program and property of the in-place vs forked
// comparison; stats pins the in-place run's solver counts when set.
type inPlaceCase struct {
	name   string
	prog   *minic.Program
	prop   *spec.Property
	events *minic.EventMap
	stats  *core.Stats
}

// inPlaceCases returns the four small Table 1 programs (VixieCron ×2 and
// At ×2, seed 0) with their pinned solver counts, and the testdata
// fixtures: a plain and a parametric property.
func inPlaceCases(t *testing.T) []inPlaceCase {
	t.Helper()
	pinned := []core.Stats{
		{Vars: 2596, ConsNodes: 225, Reach: 13639, Edges: 3105, Collapsed: 215},
		{Vars: 2678, ConsNodes: 243, Reach: 12649, Edges: 3089, Collapsed: 174},
		{Vars: 3980, ConsNodes: 337, Reach: 16132, Edges: 4683, Collapsed: 319},
		{Vars: 3975, ConsNodes: 302, Reach: 14975, Edges: 4700, Collapsed: 354},
	}
	var cases []inPlaceCase
	for _, row := range synth.Table1()[:2] {
		for p := 0; p < row.Programs; p++ {
			cfg := row.Config
			cfg.Seed += int64(p) * 1000
			cases = append(cases, inPlaceCase{
				name:   fmt.Sprintf("%s/%d", row.Name, p),
				prog:   minic.MustParse(synth.Generate(cfg)),
				prop:   FullPrivilegeProperty(),
				events: FullPrivilegeEvents(),
				stats:  &pinned[len(cases)],
			})
		}
	}
	fileProp, err := spec.Compile(fileSpec, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		file   string
		prop   *spec.Property
		events *minic.EventMap
	}{
		{"section63.c", SimplePrivilegeProperty(), minic.PrivilegeEvents()},
		{"filestate.c", fileProp, minic.FileEvents()},
	} {
		src, err := os.ReadFile("testdata/" + fx.file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minic.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, inPlaceCase{name: fx.file, prog: prog, prop: fx.prop, events: fx.events})
	}
	return cases
}

// TestInPlaceCheckMatchesForked checks that the one-shot Check, which
// layers the property on its own skeleton in place, agrees with
// BuildSkeleton plus Skeleton.Check, which layer it on a fork: the same
// solver counts, violations (with traces and may-flags) and pc
// annotations at every slice node.
func TestInPlaceCheckMatchesForked(t *testing.T) {
	for _, c := range inPlaceCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := Check(c.prog, c.prop, c.events, "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p, err := ir.FromProgram(c.prog)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := BuildSkeleton(p, "", core.Options{}, func(call *minic.CallExpr, assignTo string) bool {
				_, ok := c.events.Match(call, assignTo)
				return ok
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sk.Check(c.prop, c.events)
			if err != nil {
				t.Fatal(err)
			}

			if g, w := got.Sys.Stats(), want.Sys.Stats(); g != w {
				t.Errorf("stats: in place %+v, forked %+v", g, w)
			}
			if got.Base != want.Base {
				t.Errorf("base: in place %+v, forked %+v", got.Base, want.Base)
			}
			if c.stats != nil && got.Sys.Stats() != *c.stats {
				t.Errorf("stats %+v, pinned %+v", got.Sys.Stats(), *c.stats)
			}
			if !reflect.DeepEqual(got.Violations, want.Violations) {
				t.Errorf("violations differ:\nin place %+v\nforked   %+v", got.Violations, want.Violations)
			}
			if !reflect.DeepEqual(got.slice, want.slice) {
				t.Fatalf("slices differ")
			}
			for _, id := range got.slice {
				g, w := got.PN.At(got.NodeVar[id]), want.PN.At(want.NodeVar[id])
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("node %d: in place %v, forked %v", id, g, w)
				}
			}
		})
	}
}
