// Package analysis is the package-level static-analysis driver: it loads
// a directory tree of Go files, translates them into the toolkit's
// intermediate form once, and runs a registry of typestate checkers —
// each a regularly-annotated-set-constraint property (§6) — concurrently
// over the program's entry functions. Diagnostics are first-class values
// with stable positions, //rasc:ignore suppression, and text, JSON and
// SARIF renderers so the output can feed CI annotation tooling.
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"rasc/internal/minic"
	"rasc/internal/spec"
)

// Mode selects how a checker turns solver results into diagnostics.
type Mode int

const (
	// ModeViolations reports each property violation (transition into an
	// accepting error state) with its witness trace.
	ModeViolations Mode = iota
	// ModeLeakAtExit reports each parameter label whose automaton copy is
	// accepting when the entry function exits (resource-leak shape, like
	// the open-descriptor query of §6.4.1).
	ModeLeakAtExit
)

// Severity ranks diagnostics.
type Severity int

// Severities, ordered from most to least severe.
const (
	SeverityError Severity = iota
	SeverityWarning
	SeverityNote
)

// String returns the SARIF-compatible level name.
func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	default:
		return "note"
	}
}

// MarshalJSON renders the severity as its level name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a level name back into a Severity.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = SeverityError
	case `"warning"`:
		*s = SeverityWarning
	case `"note"`:
		*s = SeverityNote
	default:
		return fmt.Errorf("analysis: unknown severity %s", b)
	}
	return nil
}

// Checker is one registered API-usage property. The property and event
// map are built lazily, once, and shared across concurrent jobs: compiled
// properties (DFA + transition monoid) are read-only after construction.
//
// A checker is either property-based (Spec + NewEvents, solved with the
// RASC pushdown engine) or model-based (Run set, inspecting the
// package's concurrency model directly — the race and lockorder
// checkers). Exactly one of the two forms must be provided.
type Checker struct {
	// Name is the registry key ("doublelock").
	Name string
	// Doc is a one-line description, shown by -list and in SARIF rules.
	Doc string
	// Severity of the produced diagnostics.
	Severity Severity
	// Mode selects the result query.
	Mode Mode
	// NewEvents builds the call-to-alphabet event map.
	NewEvents func() *minic.EventMap
	// Run, when set, replaces the property solve: the checker computes
	// its diagnostics from the package directly. Run must be safe for
	// concurrent calls with distinct entries.
	Run func(pkg *Package, c *Checker, entry string) []Diagnostic
	// Message is the diagnostic text; a "%s" verb, if present, receives
	// the parameter label (the offending mutex, file, rows value, ...).
	Message string
	// Spec is the property specification source the checker compiles
	// (property-based checkers). It is both what jobs solve and what the
	// checker's content fingerprint hashes, so editing a spec
	// invalidates cached results.
	Spec string
	// Version is a manual content-version tag for checkers whose
	// semantics live in code the fingerprint cannot see — bump it when a
	// Run checker's algorithm or a property's event mapping changes
	// behavior without changing Spec.
	Version string

	once       sync.Once
	prop       *spec.Property
	eventsOnce sync.Once
	events     *minic.EventMap

	fpOnce sync.Once
	fp     string
}

// NewProperty compiles the checker's Spec.
func (c *Checker) NewProperty() *spec.Property { return spec.MustCompile(c.Spec) }

func (c *Checker) compiled() (*spec.Property, *minic.EventMap) {
	c.once.Do(func() { c.prop = c.NewProperty() })
	return c.prop, c.eventMap()
}

// eventMap builds the event map on first use, apart from the property:
// cache keys read only its rules, so a fully warm run compiles no spec.
func (c *Checker) eventMap() *minic.EventMap {
	c.eventsOnce.Do(func() { c.events = c.NewEvents() })
	return c.events
}

// propertyBased reports whether the checker is solved from a property
// (Spec and NewEvents set) rather than computed by Run.
func (c *Checker) propertyBased() bool { return c.Spec != "" && c.NewEvents != nil }

// Domain describes the checker's annotation domain for display: "model"
// for model-based checkers (Run set), otherwise the compiled property's
// domain — "regular" for plain finite-state specs, "counting(c≤4)" style
// for bounded-counter ones.
func (c *Checker) Domain() string {
	if c.Run != nil {
		return "model"
	}
	prop, _ := c.compiled()
	return prop.Domain()
}

// message renders the diagnostic text for a parameter label.
func (c *Checker) message(label string) string {
	if label == "" {
		label = "?"
	}
	if containsVerb(c.Message) {
		return fmt.Sprintf(c.Message, label)
	}
	return c.Message
}

func containsVerb(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '%' && s[i+1] == 's' {
			return true
		}
	}
	return false
}

// registry is the checker table: builtin.go's checkers by name, built
// and validated once at package init. Nothing adds to it afterwards, so
// lookups take no lock and everything derived from it is computed once.
var registry = newRegistry(builtins)

// newRegistry indexes a checker table by name. A checker needs a name
// and exactly one of Run or Spec+NewEvents; a duplicate name panics,
// since checker names are part of the suppression and CLI surface.
func newRegistry(cs []*Checker) map[string]*Checker {
	reg := make(map[string]*Checker, len(cs))
	for _, c := range cs {
		if c.Name == "" || c.propertyBased() == (c.Run != nil) {
			panic("analysis: checker needs a name and exactly one of Run or Spec+NewEvents")
		}
		if _, dup := reg[c.Name]; dup {
			panic("analysis: duplicate checker " + c.Name)
		}
		reg[c.Name] = c
	}
	return reg
}

// fingerprint renders the checker's analysis-relevant content: identity,
// diagnostic shape, declared spec/version, and — for property checkers —
// the compiled event rules, whose plain-struct rendering is stable. A
// checker is immutable, so the rendering is computed once; every job's
// memo and cache key reads it.
func (c *Checker) fingerprint() string {
	c.fpOnce.Do(func() {
		var b strings.Builder
		fmt.Fprintf(&b, "checker %s\ndoc %s\nsev %d mode %d\nmsg %s\nspec %s\nversion %s\n",
			c.Name, c.Doc, c.Severity, c.Mode, c.Message, c.Spec, c.Version)
		if c.propertyBased() {
			for _, r := range c.eventMap().Rules {
				fmt.Fprintf(&b, "rule %+v\n", r)
			}
		}
		c.fp = b.String()
	})
	return c.fp
}

// registryFingerprint hashes the full registry's content. The whole
// registry matters to every cached result — the shared skeleton's
// deferred-statement set is computed from the union of all checkers'
// event callees — so persistent cache keys include this fingerprint.
var registryFingerprint = sync.OnceValue(func() string {
	h := sha256.New()
	for _, c := range All() {
		fmt.Fprintf(h, "%s\n", c.fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))
})

// eventCallees is the union of callee names appearing in any registered
// property checker's event rules — a conservative over-approximation of
// "some checker might treat a call to this function as an event". Every
// skeleton defers exactly the calls to these names.
var eventCallees = sync.OnceValue(func() map[string]bool {
	set := map[string]bool{}
	for _, c := range All() {
		if !c.propertyBased() {
			continue
		}
		for _, r := range c.eventMap().Rules {
			set[r.Callee] = true
		}
	}
	return set
})

// Get looks a checker up by name.
func Get(name string) (*Checker, bool) {
	c, ok := registry[name]
	return c, ok
}

// All returns every registered checker, sorted by name.
func All() []*Checker {
	out := make([]*Checker, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolve turns checker names into checkers, in first-mention order:
// spaces around a name are ignored, and so are blank names and repeats.
// "all", or a list that names no checker, selects the full registry. It
// resolves both gocheck's -checkers list (split on commas) and the
// Checkers of an Engine request, so the two select alike.
func Resolve(names []string) ([]*Checker, error) {
	var out []*Checker
	all := false
	seen := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		if name == "all" {
			all = true
			continue
		}
		c, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown checker %q (have %s)", name, knownNames())
		}
		out = append(out, c)
	}
	if all || len(out) == 0 {
		return All(), nil
	}
	return out, nil
}

func knownNames() string {
	all := All()
	s := ""
	for i, c := range all {
		if i > 0 {
			s += ", "
		}
		s += c.Name
	}
	return s
}
