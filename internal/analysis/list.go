package analysis

import (
	"fmt"
	"hash/fnv"
	"io"

	"rasc/internal/spec"
)

// ListText writes the registered-checker listing (gocheck -list): one
// line per checker, sorted by name, with severity, annotation domain,
// spec digest, version and doc. Spec and Version are the checker-identity
// inputs of the cache key (Checker.fingerprint), so the listing shows
// exactly what invalidates cached results; specs are multi-line automaton
// sources, printed as a stable FNV-1a digest instead of the text. The
// output is byte-stable across runs — tests keep it under a golden file.
func ListText(w io.Writer) error {
	for _, c := range All() {
		specDigest := "-"
		if c.Spec != "" {
			h := fnv.New32a()
			h.Write([]byte(c.Spec))
			specDigest = fmt.Sprintf("%08x", h.Sum32())
		}
		version := c.Version
		if version == "" {
			version = "-"
		}
		if _, err := fmt.Fprintf(w, "%-12s %-7s %-24s spec=%-8s version=%-4s %s\n",
			c.Name, c.Severity, c.Domain(), specDigest, version, c.Doc); err != nil {
			return err
		}
	}
	return nil
}

// SpeclintFinding pairs a checker name with one finding from linting its
// property specification.
type SpeclintFinding struct {
	Checker string           `json:"checker"`
	Finding spec.LintFinding `json:"finding"`
}

func (f SpeclintFinding) String() string {
	return f.Checker + ": " + f.Finding.String()
}

// Speclint runs the specification linter (spec.LintProperty) over every
// property-based checker in cs, in registry order. Model-based checkers
// (Run set) have no spec and are skipped. CI runs this over the full
// registry and fails on any finding: a built-in checker whose spec has a
// dead state, a vacuous assert or a loose relation band is a bug in the
// checker, not in the analyzed program.
func Speclint(cs []*Checker) []SpeclintFinding {
	var out []SpeclintFinding
	for _, c := range cs {
		if !c.propertyBased() {
			continue
		}
		prop, _ := c.compiled()
		for _, f := range spec.LintProperty(prop) {
			out = append(out, SpeclintFinding{Checker: c.Name, Finding: f})
		}
	}
	return out
}
