// Package pdm implements the pushdown model checking application of §6:
// verifying MOPS-class temporal safety properties of C-like programs with
// regularly annotated set constraints. The program's control flow graph
// becomes a constraint system (§6.1): one set variable per CFG node,
// annotated edges for property-relevant statements, and a unary
// constructor per call site whose projection models the matching return.
// The program counter is the constant pc seeded at main's entry; a
// property violation is the presence of pc with an accepting annotation,
// found with PN reachability so that partially matched (unreturned) call
// paths are included (§6.2). Parametric properties (§6.4) use
// substitution-environment annotations.
package pdm

import (
	"fmt"
	"sort"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/monoid"
	"rasc/internal/spec"
	"rasc/internal/subst"
)

// Result is the outcome of a model-checking run. One layered in a
// Workspace (Skeleton.CheckObs) is valid only until that Workspace's
// next layer: Sys, PN and every query on the Result read its storage.
type Result struct {
	// Sys is the underlying constraint system, for advanced queries.
	Sys *core.System
	// Base holds the solver statistics of the skeleton the property was
	// layered on: the shared skeleton a Skeleton.Check forked, or the
	// private one Check built. Sys.Stats() includes it;
	// Sys.Stats().Minus(Base) is the work attributable to this property
	// alone.
	Base core.Stats
	// PN is the program counter's PN-reachability result.
	PN *core.PNResult
	// Violations, deduplicated and ordered by line.
	Violations []Violation
	// NodeVar maps CFG node IDs to their set variables; nodes outside the
	// entry's call-graph closure map to -1.
	NodeVar []core.VarID

	prog   *minic.Program
	cfg    *minic.CFG
	prop   *spec.Property
	pcNode core.CNode
	envTab *subst.Table
	// slice lists the CFG nodes of the entry's call-graph closure,
	// ascending (see Skeleton).
	slice []int
	// events lists the layered event statements in node order.
	events  []nodeEvent
	alg     core.Algebra
	explain bool
}

// nodeEvent is an action node whose call the property's event map
// matched: the event while the layer classifies it, then the annotation
// its outgoing edges carry.
type nodeEvent struct {
	node  *minic.Node
	ev    minic.Event
	annot core.Annot
}

// Violation is one property violation.
type Violation struct {
	// Fn and Line locate the earliest program point at which the
	// property automaton has reached an accepting (error) state.
	Fn   string
	Line int
	// NodeID is the CFG node.
	NodeID int
	// Label is the offending parameter instantiation for parametric
	// properties ("fd2"), or "" for plain ones.
	Label string
	// May marks a verdict that rests on a saturated counter or relation
	// valuation (the tracker lost the exact value, see spec.MayState):
	// every accepting witness for this label lands in a may-state.
	May bool
	// Trace is the witness path (function, line) hops, oldest first.
	Trace []TracePoint
	// Provenance is the solver-level derivation chain behind the
	// violation, oldest first; populated only when the run was checked
	// with Obs.Explain set.
	Provenance []ProvStep
}

// ProvStep is one hop of a violation's derivation chain: a core
// provenance step positioned in the program and with its annotation
// rendered through the property's algebra. Rule is one of the core
// rule names (seed, edge, wrap, pop) or "event" for the final
// error-state transition appended by collectViolations (and "exit" for
// leak-mode chains).
type ProvStep struct {
	Fn    string `json:"fn"`
	Line  int    `json:"line"`
	Rule  string `json:"rule"`
	Annot string `json:"annot,omitempty"`
}

// TracePoint is one hop of a violation witness.
type TracePoint struct {
	Fn   string
	Line int
	// Enter is set when the hop enters a callee through a call site.
	Enter bool
}

func (v Violation) String() string {
	lbl := ""
	if v.Label != "" {
		lbl = " [" + v.Label + "]"
	}
	return fmt.Sprintf("%s:%d: property violation%s", v.Fn, v.Line, lbl)
}

// Check model-checks prog against the compiled property, using events to
// map calls to alphabet symbols. entry is the entry function ("" means
// main). opts configures the underlying solver.
//
// Check is the one-shot form of the two-phase API: it lowers prog into
// the IR, builds a Skeleton whose deferred set is exactly the statements
// events classifies as property events, then layers the property on it.
// The skeleton is private to the call, so Check neither forks it (the
// property is layered on its system in place) nor fingerprints the IR
// (ir.Lower). Drivers checking several properties over the same entry
// should lower once, call BuildSkeleton once, and Skeleton.Check per
// property instead.
func Check(prog *minic.Program, prop *spec.Property, events *minic.EventMap, entry string, opts core.Options) (*Result, error) {
	p, err := ir.Lower(prog)
	if err != nil {
		return nil, err
	}
	sk, err := BuildSkeleton(p, entry, opts, func(call *minic.CallExpr, assignTo string) bool {
		_, ok := events.Match(call, assignTo)
		return ok
	})
	if err != nil {
		return nil, err
	}
	return sk.layer(prop, events, nil, nil, true)
}

// collectViolations implements §6.2 literally: record each statement that
// could cause a transition to the error state — an action node where the
// event's annotation composes some non-accepting pc occurrence into an
// accepting one — and attach a witness trace.
func (r *Result) collectViolations(alg core.Algebra) {
	var nodeOf []int // built for the first violation
	seen := map[string]bool{}
	for _, e := range r.events {
		n := e.node
		v := r.NodeVar[n.ID]
		for _, a := range r.PN.At(v) {
			comp := alg.Then(a, e.annot)
			fresh := r.newViolationLabels(a, comp)
			if len(fresh) == 0 {
				continue
			}
			steps := r.PN.Trace(r.Sys.Rep(v), a)
			for _, lbl := range fresh {
				key := fmt.Sprintf("%d|%s", n.ID, lbl)
				if seen[key] {
					continue
				}
				seen[key] = true
				if nodeOf == nil {
					nodeOf = r.repNodes()
				}
				tr := r.tracePoints(steps, nodeOf)
				if len(tr) == 0 || tr[len(tr)-1] != (TracePoint{Fn: n.Fn, Line: n.Line}) {
					tr = append(tr, TracePoint{Fn: n.Fn, Line: n.Line})
				}
				var prov []ProvStep
				if r.explain {
					// The derivation chain behind the violating fact, then
					// the event transition that makes it accepting.
					prov = r.provSteps(steps, nodeOf)
					prov = append(prov, ProvStep{
						Fn: n.Fn, Line: n.Line, Rule: "event", Annot: alg.String(comp),
					})
				}
				r.Violations = append(r.Violations, Violation{
					Fn:         n.Fn,
					Line:       n.Line,
					NodeID:     n.ID,
					Label:      lbl,
					May:        r.mayForLabel(comp, lbl),
					Trace:      tr,
					Provenance: prov,
				})
			}
		}
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		if r.Violations[i].Line != r.Violations[j].Line {
			return r.Violations[i].Line < r.Violations[j].Line
		}
		return r.Violations[i].Label < r.Violations[j].Label
	})
}

// newViolationLabels returns the labels accepting in comp but not already
// accepting in prev (for plain properties, [""] when prev is non-accepting
// and comp accepting).
func (r *Result) newViolationLabels(prev, comp core.Annot) []string {
	if r.envTab == nil {
		if !r.prop.Mon.Accepting(monoid.FuncID(comp)) || r.prop.Mon.Accepting(monoid.FuncID(prev)) {
			return nil
		}
		return []string{""}
	}
	if !r.envTab.Accepting(subst.ID(comp)) {
		return nil
	}
	before := map[string]bool{}
	for _, lbl := range r.acceptingLabels(prev) {
		before[lbl] = true
	}
	var out []string
	for _, lbl := range r.acceptingLabels(comp) {
		if !before[lbl] {
			out = append(out, lbl)
		}
	}
	sort.Strings(out)
	return out
}

// acceptingLabels lists the accepting instantiations of an environment
// annotation.
func (r *Result) acceptingLabels(a core.Annot) []string {
	var out []string
	for _, v := range r.envTab.AcceptingEntries(subst.ID(a)) {
		out = append(out, joinBindingLabels(v.Bindings))
	}
	return out
}

func joinBindingLabels(bs []subst.Binding) string {
	lbl := ""
	for i, b := range bs {
		if i > 0 {
			lbl += ","
		}
		lbl += b.Label
	}
	return lbl
}

// mayForLabel reports whether every accepting witness of annotation a for
// the given label lands on a saturated (may) machine state. One definite
// witness makes the verdict definite.
func (r *Result) mayForLabel(a core.Annot, lbl string) bool {
	if r.prop == nil {
		return false
	}
	if r.envTab == nil {
		f := monoid.FuncID(a)
		if !r.prop.Mon.Accepting(f) {
			return false
		}
		return r.prop.MayState(r.prop.Mon.RightClass(f))
	}
	found := false
	for _, v := range r.envTab.AcceptingEntries(subst.ID(a)) {
		if joinBindingLabels(v.Bindings) != lbl {
			continue
		}
		if !r.prop.MayState(r.prop.Mon.RightClass(v.F)) {
			return false
		}
		found = true
	}
	return found
}

// labelsOf extracts the violating parameter labels of an accepting
// annotation ("" for plain properties or residual violations).
func (r *Result) labelsOf(a core.Annot) []string {
	if r.envTab == nil {
		return []string{""}
	}
	var out []string
	for _, v := range r.envTab.AcceptingEntries(subst.ID(a)) {
		out = append(out, joinBindingLabels(v.Bindings))
	}
	if len(out) == 0 {
		out = []string{""}
	}
	sort.Strings(out)
	return out
}

// provSteps renders a witness trace into positioned provenance hops,
// placing each hop through nodeOf (see repNodes). Hops at solver-internal
// variables (projection-merge intermediates and the like) carry no
// program point and are dropped.
func (r *Result) provSteps(steps []core.TraceStep, nodeOf []int) []ProvStep {
	var out []ProvStep
	for _, st := range core.ProvFromTrace(steps) {
		id := nodeOf[st.Var]
		if id < 0 {
			continue
		}
		n := r.cfg.Nodes[id]
		out = append(out, ProvStep{Fn: n.Fn, Line: n.Line, Rule: st.Rule, Annot: r.alg.String(st.Annot)})
	}
	return out
}

// ExitProvenance returns the derivation chain behind a leak-mode
// finding: how the annotation still accepting for label reached the
// entry function's exit. Returns nil when the run was not checked with
// Obs.Explain, or when no matching accepting fact exists.
func (r *Result) ExitProvenance(entry, label string) []ProvStep {
	if !r.explain {
		return nil
	}
	exit := r.exitNode(entry)
	if exit < 0 {
		return nil
	}
	exitVar := r.NodeVar[exit]
	for _, a := range r.PN.At(exitVar) {
		if !r.accepting(a) {
			continue
		}
		match := label == ""
		for _, lbl := range r.labelsOf(a) {
			if lbl == label {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		steps := r.PN.Trace(r.Sys.Rep(exitVar), a)
		prov := r.provSteps(steps, r.repNodes())
		exitNode := r.cfg.Nodes[exit]
		return append(prov, ProvStep{
			Fn: exitNode.Fn, Line: exitNode.Line, Rule: "exit", Annot: r.alg.String(a),
		})
	}
	return nil
}

func (r *Result) tracePoints(steps []core.TraceStep, nodeOf []int) []TracePoint {
	var out []TracePoint
	for _, st := range steps {
		id := nodeOf[st.Var]
		if id < 0 {
			continue
		}
		n := r.cfg.Nodes[id]
		out = append(out, TracePoint{Fn: n.Fn, Line: n.Line, Enter: st.Wrapped >= 0})
	}
	return out
}

// repNodes maps every variable of the system to the CFG node a witness
// hop at it is shown at: for a representative, the lowest-numbered of the
// nodes it stands for (cycle elimination can merge several), and -1 for
// every other variable. Only the entry's slice has variables.
func (r *Result) repNodes() []int {
	out := make([]int, r.Sys.NumVars())
	for i := range out {
		out[i] = -1
	}
	for _, id := range r.slice {
		if rep := r.Sys.Rep(r.NodeVar[id]); out[rep] < 0 {
			out[rep] = id
		}
	}
	return out
}

// OpenInstancesAtExit returns, for parametric resource properties such as
// the file-state automaton of Figure 5, the labels whose automaton copy
// is in an accepting state when the entry function exits (e.g. files
// still open at the end of the program, §6.4.1).
func (r *Result) OpenInstancesAtExit(entry string) []string {
	out, _ := r.OpenInstancesAtExitDetail(entry)
	return out
}

// OpenInstancesAtExitDetail is OpenInstancesAtExit plus, per label, whether
// the verdict is a MAY verdict: every accepting valuation reaching the exit
// for that label rests on a saturated counter or relation tracker state.
func (r *Result) OpenInstancesAtExitDetail(entry string) ([]string, map[string]bool) {
	exit := r.exitNode(entry)
	if exit < 0 {
		return nil, nil
	}
	may := map[string]bool{}
	for _, a := range r.PN.At(r.NodeVar[exit]) {
		if !r.accepting(a) {
			continue
		}
		for _, lbl := range r.labelsOf(a) {
			m := r.mayForLabel(a, lbl)
			if prev, seen := may[lbl]; seen {
				may[lbl] = prev && m
			} else {
				may[lbl] = m
			}
		}
	}
	var out []string
	for l := range may {
		out = append(out, l)
	}
	sort.Strings(out)
	return out, may
}

// exitNode returns the CFG exit node of entry ("" means main, aliases
// resolve to their canonical function), or -1 when the function is
// undefined or outside the slice the result was checked over.
func (r *Result) exitNode(entry string) int {
	if entry == "" {
		entry = "main"
	}
	fd, ok := r.prog.ByName[entry]
	if !ok {
		return -1
	}
	exit, ok := r.cfg.Exit[fd.Name]
	if !ok || r.NodeVar[exit] == absentVar {
		return -1
	}
	return exit
}

func (r *Result) accepting(a core.Annot) bool {
	if r.envTab != nil {
		return r.envTab.Accepting(subst.ID(a))
	}
	return r.prop.Mon.Accepting(monoid.FuncID(a))
}

// CFG exposes the control flow graph used for checking.
func (r *Result) CFG() *minic.CFG { return r.cfg }
