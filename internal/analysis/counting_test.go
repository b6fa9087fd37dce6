package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc/internal/gosrc"
)

// countingCheckerNames are the bounded-counter checkers, with the
// counter-valuation marker their provenance annotations must carry
// (product state names render as "S·c=2", "S·held>=5", …).
var countingCheckerNames = map[string]string{
	"semabalance":  "·acq-rel",
	"lockbalance":  "·lk-un",
	"poolexchange": "·tk-gv",
	"poolexhaust":  "·held",
	"depthbound":   "·depth",
	"waitgroup":    "·c",
}

func countingCheckers(t *testing.T) []*Checker {
	t.Helper()
	cs, err := Resolve([]string{"semabalance", "lockbalance", "poolexchange", "poolexhaust", "depthbound", "waitgroup"})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestExplainCountingProvenance checks that -explain derivation chains
// on counting findings actually show the counter valuation: every
// finding must have at least one provenance hop whose annotation names
// the checker's counter (e.g. "S·c=1" on a semabalance chain).
func TestExplainCountingProvenance(t *testing.T) {
	rep, err := Analyze(loadCorpus(t), Config{Checkers: countingCheckers(t), Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range rep.Diagnostics {
		marker := countingCheckerNames[d.Checker]
		if marker == "" {
			t.Errorf("unexpected checker %q in counting-only run", d.Checker)
			continue
		}
		seen[d.Checker] = true
		found := false
		for _, ps := range d.Provenance {
			if strings.Contains(ps.Annot, marker) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s finding at %s:%d: no provenance hop carries the counter marker %q",
				d.Checker, d.File, d.Line, marker)
		}
	}
	for name := range countingCheckerNames {
		if !seen[name] {
			t.Errorf("corpus produced no %s finding to check", name)
		}
	}
}

// TestCountingCacheColdWarmIdentical runs the counting checkers cold
// (populating a fresh cache) and warm (fully cached) and requires
// byte-identical reports: the counter bound lives in the spec source,
// which is part of the cache key, so a cached record can never cross a
// bound change.
func TestCountingCacheColdWarmIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func() []byte {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(loadCorpus(t), Config{Checkers: countingCheckers(t), Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diagnostics) == 0 {
			t.Fatal("counting run produced no findings")
		}
		rep.Cache = nil
		var buf bytes.Buffer
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := run()
	warm := run()
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm counting report differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestRelationalFewerMayVerdicts is the end-to-end form of the
// relational precision claim: on a burst of five balanced
// acquire/release pairs — deeper than the v1 counter's bound of 4 —
// the independent-counter baseline saturates and may-reports an
// unbalanced exit, while the relational semabalance tracks the
// difference exactly, verifies the function, and reports nothing.
// Both still report the genuinely unbalanced function, definitely.
func TestRelationalFewerMayVerdicts(t *testing.T) {
	dir := t.TempDir()
	src := `package diffdemo

func BurstBalanced() {
	sem.Acquire(ctx, 1)
	sem.Acquire(ctx, 1)
	sem.Acquire(ctx, 1)
	sem.Acquire(ctx, 1)
	sem.Acquire(ctx, 1)
	work()
	sem.Release(1)
	sem.Release(1)
	sem.Release(1)
	sem.Release(1)
	sem.Release(1)
}

func BurstHold(n int) {
	sem.Acquire(ctx, 1)
	if n > 0 {
		return
	}
	sem.Release(1)
}
`
	if err := os.WriteFile(filepath.Join(dir, "burst.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadPaths([]string{dir})
	if err != nil {
		t.Fatal(err)
	}

	relational, err := Resolve([]string{"semabalance"})
	if err != nil {
		t.Fatal(err)
	}
	indep := &Checker{
		Name:      "semabalance-indep",
		Doc:       "v1 single-counter baseline for the relational semabalance",
		Severity:  SeverityWarning,
		Mode:      ModeLeakAtExit,
		Spec:      gosrc.SemaBalanceIndepSpecSrc,
		NewEvents: gosrc.SemaBalanceEvents,
		Message:   "semaphore %s: acquires and releases may be unbalanced when the entry function returns",
	}

	findings := func(cs []*Checker) map[string]bool {
		rep, err := Analyze(pkg, Config{Checkers: cs})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, d := range rep.Diagnostics {
			out[d.Entry] = d.May
		}
		return out
	}

	rel := findings(relational)
	base := findings([]*Checker{indep})

	if may, ok := base["BurstBalanced"]; !ok || !may {
		t.Errorf("independent baseline on BurstBalanced = (reported=%v, may=%v), want a may finding", ok, may)
	}
	if _, ok := rel["BurstBalanced"]; ok {
		t.Error("relational semabalance reported the balanced burst; the joint tracker should verify it")
	}
	for name, fs := range map[string]map[string]bool{"relational": rel, "independent": base} {
		if may, ok := fs["BurstHold"]; !ok || may {
			t.Errorf("%s on BurstHold = (reported=%v, may=%v), want a definite finding", name, ok, may)
		}
	}
	if len(rel) >= len(base) {
		t.Errorf("relational findings = %d, independent = %d; want strictly fewer may-verdicts", len(rel), len(base))
	}
}

// TestCountingDeterministicAcrossPoolSizes requires the counting
// checkers to render byte-identical reports at 1 and 8 workers.
func TestCountingDeterministicAcrossPoolSizes(t *testing.T) {
	one := analyzeJSON(t, loadCorpus(t), Config{Checkers: countingCheckers(t), Parallel: 1})
	eight := analyzeJSON(t, loadCorpus(t), Config{Checkers: countingCheckers(t), Parallel: 8})
	if !bytes.Equal(one, eight) {
		t.Errorf("parallel=8 counting report differs from parallel=1:\n1:\n%s\n8:\n%s", one, eight)
	}
}
