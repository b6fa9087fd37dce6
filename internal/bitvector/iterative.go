package bitvector

import (
	"sort"

	"rasc/internal/minic"
)

// IterViolation is a tainted use found by the baseline.
type IterViolation struct {
	Fn     string
	Line   int
	NodeID int
	Label  string
}

// IterResult is the baseline's output.
type IterResult struct {
	Violations []IterViolation
	// Facts is the analyzed fact universe (labels), sorted.
	Facts []string
}

// CheckIterative runs the taint analysis on the summary-based gen/kill
// engine (Solve), producing the same judgments as Check for differential
// testing.
func CheckIterative(prog *minic.Program) (*IterResult, error) {
	cfg, err := minic.Build(prog)
	if err != nil {
		return nil, err
	}
	events := TaintEvents()

	// Fact universe and per-node events.
	labelIdx := map[string]int{}
	var labels []string
	intern := func(l string) int {
		if i, ok := labelIdx[l]; ok {
			return i
		}
		labelIdx[l] = len(labels)
		labels = append(labels, l)
		return len(labels) - 1
	}
	type nodeEv struct {
		sym   string
		label int
	}
	nodeEvs := map[int]nodeEv{}
	callTo := map[int]string{} // action node -> defined callee
	for _, n := range cfg.Nodes {
		if n.Kind != minic.NAction {
			continue
		}
		if ev, ok := events.Match(n.Call, n.AssignTo); ok {
			nodeEvs[n.ID] = nodeEv{ev.Symbol, intern(ev.Label)}
		} else if def, defined := prog.Callee(n.Call); defined {
			callTo[n.ID] = def.Name // resolve aliases to the canonical name
		}
	}
	nf := len(labels)
	if nf == 0 {
		return &IterResult{}, nil
	}

	// Every function; the flow starts at main, or at every function when
	// there is no main.
	var roots []string
	for _, fd := range prog.Funcs {
		roots = append(roots, fd.Name)
	}
	if _, ok := cfg.Entry["main"]; ok {
		roots = []string{"main"}
	}
	sol := Solve(Problem{
		CFG:   cfg,
		Funcs: cfg.Funcs,
		Facts: nf,
		Effect: func(n *minic.Node) (gen, kill []int) {
			switch ev := nodeEvs[n.ID]; ev.sym {
			case "taint":
				return []int{ev.label}, nil
			case "sanitize":
				return nil, []int{ev.label}
			}
			return nil, nil
		},
		Callee: func(n *minic.Node) string { return callTo[n.ID] },
		Roots:  roots,
	})

	// Violations: use(l) nodes that l reaches.
	res := &IterResult{Facts: append([]string{}, labels...)}
	sort.Strings(res.Facts)
	for _, n := range cfg.Nodes {
		ev, ok := nodeEvs[n.ID]
		if !ok || ev.sym != "use" {
			continue
		}
		if sol.Has(n.ID, ev.label) {
			res.Violations = append(res.Violations, IterViolation{
				Fn: n.Fn, Line: n.Line, NodeID: n.ID, Label: labels[ev.label],
			})
		}
	}
	sort.Slice(res.Violations, func(i, j int) bool {
		if res.Violations[i].Line != res.Violations[j].Line {
			return res.Violations[i].Line < res.Violations[j].Line
		}
		return res.Violations[i].Label < res.Violations[j].Label
	})
	return res, nil
}
