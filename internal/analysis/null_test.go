package analysis

import (
	"fmt"
	"reflect"
	"testing"

	"rasc/internal/gosrc"
)

// startAcceptingSrc is a leak-mode property whose start state accepts:
// every entry that can return, events or none, leaves it accepting at
// exit. A null layer of it reports a finding, so its jobs must never
// take the null-layer shortcut.
const startAcceptingSrc = `
start accept state Opened :
    | close(x) -> Closed;

state Closed :
    | open(x) -> Opened;
`

// startAccepting is an unregistered checker over startAcceptingSrc with
// fileleak's event rules, whose callees the registry already defers.
func startAccepting() *Checker {
	return &Checker{
		Name:      "startaccept",
		Severity:  SeverityWarning,
		Mode:      ModeLeakAtExit,
		Spec:      startAcceptingSrc,
		NewEvents: gosrc.FileLeakEvents,
		Message:   "%s open at exit",
	}
}

// Every property job gives the same record whether runJob serves it
// from its entry's null layer or layerJob layers the property in full:
// over every (property checker, entry) pair of the testdata corpus and
// of internal/..., with explain off and on, plus a checker whose start
// state accepts, whose full layer reports a leak at entries with no
// event at all.
func TestNullJobsMatchFullLayer(t *testing.T) {
	checkers := []*Checker{startAccepting()}
	for _, c := range All() {
		if c.Run == nil {
			checkers = append(checkers, c)
		}
	}
	for _, tc := range []struct {
		path        string
		null, total int // want; total 0 leaves the counts unpinned
	}{
		{"testdata/src/...", 162, 195},
		{internalTree, 0, 0},
	} {
		t.Run(tc.path, func(t *testing.T) {
			pkg, err := LoadPaths([]string{tc.path})
			if err != nil {
				t.Fatal(err)
			}
			null, total, startFindings := 0, 0, 0
			for _, explain := range []bool{false, true} {
				ob := newObsState(&Config{Explain: explain})
				for _, e := range pkg.Roots() {
					se := pkg.skeleton(e, ob)
					if se.err != nil {
						t.Fatal(se.err)
					}
					for _, c := range checkers {
						prop, events := c.compiled()
						short, err := runJob(pkg, c, e, ob, nil)
						if err != nil {
							t.Fatal(err)
						}
						full, err := layerJob(pkg, c, e, se.sk, ob, nil)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("explain=%v %s/%s", explain, c.Name, e)
						if !reflect.DeepEqual(short, full) {
							t.Fatalf("%s: runJob record\n%+v\nfull layer\n%+v", label, short, full)
						}
						if explain {
							continue
						}
						total++
						if nullable(prop) && !se.sk.Matches(events) {
							null++
						}
						if c.Name == "startaccept" && !se.sk.Matches(events) {
							startFindings += len(full.Diagnostics)
						}
					}
				}
			}
			t.Logf("%d of %d property jobs are null", null, total)
			if tc.total != 0 && (null != tc.null || total != tc.total) {
				t.Errorf("%d of %d property jobs are null, want %d of %d", null, total, tc.null, tc.total)
			}
			if null == 0 || startFindings == 0 {
				t.Errorf("%d null jobs, %d start-accepting findings at event-free entries; the comparison needs both",
					null, startFindings)
			}
		})
	}
}

// The shipped property checkers whose start state does not accept, so
// their jobs take the null-layer shortcut wherever they match no event.
// A checker joining or leaving this list changes which jobs skip their
// solve.
func TestNullableCheckers(t *testing.T) {
	var got, want []string
	for _, c := range All() {
		if c.Run != nil {
			continue
		}
		prop, _ := c.compiled()
		if nullable(prop) {
			got = append(got, c.Name)
		}
	}
	want = []string{"chanclose", "depthbound", "doublelock", "fileleak", "lockbalance", "poolexchange",
		"poolexhaust", "rwlock", "semabalance", "sqlrows", "taint", "waitgroup"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nullable checkers = %v, want %v", got, want)
	}
	prop, _ := startAccepting().compiled()
	if nullable(prop) {
		t.Error("a property whose start state accepts must not be nullable")
	}
}
