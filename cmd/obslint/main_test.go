package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc/internal/analysis"
)

// writeReport renders rep as gocheck's JSON report into a fresh file
// and returns its path.
func writeReport(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.JSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// -findings -require-provenance accepts an explain run's report over
// the analysis package's known-buggy corpus, and rejects it once one
// finding loses its chain or one hop loses its rule.
func TestRequireProvenance(t *testing.T) {
	pkg, err := analysis.LoadPaths([]string{"../../internal/analysis/testdata/src"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Analyze(pkg, analysis.Config{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) == 0 || len(rep.Diagnostics[0].Provenance) == 0 {
		t.Fatal("explain run over the corpus gave no finding with a chain")
	}
	if err := validateFindings(writeReport(t, rep), true); err != nil {
		t.Errorf("explain report rejected: %v", err)
	}

	d := &rep.Diagnostics[0]
	chain := d.Provenance
	d.Provenance = nil
	noChain := writeReport(t, rep)
	if err := validateFindings(noChain, false); err != nil {
		t.Errorf("without -require-provenance a finding needs no chain: %v", err)
	}
	if err := validateFindings(noChain, true); err == nil || !strings.Contains(err.Error(), "no provenance chain") {
		t.Errorf("finding without a chain not rejected: %v", err)
	}

	d.Provenance = append(chain[:0:0], chain...)
	d.Provenance[len(chain)-1].Rule = ""
	if err := validateFindings(writeReport(t, rep), true); err == nil || !strings.Contains(err.Error(), "without a rule") {
		t.Errorf("hop without a rule not rejected: %v", err)
	}
}
