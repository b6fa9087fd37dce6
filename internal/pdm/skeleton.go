// Two-phase constraint construction (§8's engineering advice applied at
// the driver level): the translation of an entry function's
// interprocedural CFG into constraints is split into a property-
// independent skeleton — node variables, intraprocedural edges,
// call/return constructors, spawn edges — built and solved once, and a
// thin per-property layer of event annotations forked on top. A driver
// checking k properties over one entry does the cubic translation work
// once instead of k times.
package pdm

import (
	"fmt"

	"rasc/internal/core"
	"rasc/internal/dfa"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/obs"
	"rasc/internal/spec"
	"rasc/internal/subst"
	"rasc/internal/terms"
)

// Skeleton is the property-independent half of a model-checking run for
// one entry function. It is immutable after BuildSkeleton and safe to
// share: Check forks the solved base system per property, so any number
// of goroutines may call Check concurrently.
type Skeleton struct {
	prog  *minic.Program
	cfg   *minic.CFG
	entry string

	// sys is frozen after build: forked, never mutated. Only the one-shot
	// Check layers on it in place, on a skeleton private to that call.
	sys *core.System
	// slice lists the CFG nodes of the entry's call-graph closure,
	// ascending; per-property passes visit only these.
	slice []int
	// nodeVar maps CFG node IDs to set variables; nodes outside the
	// slice are absentVar.
	nodeVar []core.VarID
	pc      core.CNode
	base    core.Stats

	deferred []deferredNode
}

// deferredNode is a statement whose constraint form depends on the
// property's event map (event edge vs. call constructor vs. plain
// step), deferred to the per-property phase.
type deferredNode struct {
	id     int
	callee string       // canonical defined callee name, "" if none
	cons   terms.ConsID // pre-declared call-site constructor (valid iff callee != "")
}

// skelAlgebra is the annotation algebra of the skeleton build. Only
// identity annotations occur in a skeleton, and every Algebra is
// required to represent identity as annotation 0 (monoid and
// substitution tables intern ε first), so the identity-only solve is
// valid under any later algebra a fork installs.
type skelAlgebra struct{}

func (skelAlgebra) Identity() Annot        { return 0 }
func (skelAlgebra) Then(a, b Annot) Annot  { return a | b }
func (skelAlgebra) Accepting(a Annot) bool { return false }
func (skelAlgebra) Dead(a Annot) bool      { return false }
func (skelAlgebra) String(a Annot) string  { return "ε" }

// Annot aliases core.Annot for the local algebra methods.
type Annot = core.Annot

// absentVar marks a CFG node outside the entry's slice in a skeleton's
// node-variable map.
const absentVar core.VarID = -1

// entrySlice returns the canonical entry name and the CFG nodes of the
// functions in the entry's call-graph closure, ascending. pc is seeded
// only at the entry (§6.1), so no node outside the closure can ever
// carry it: the slice is the whole of what a skeleton must model.
func entrySlice(p *ir.Program, entry string) (string, []int, error) {
	if entry == "" {
		entry = "main"
	}
	// ByName may hold aliases (gosrc registers bare method names for
	// uniquely named methods); Entry/Exit are keyed by canonical names.
	f, ok := p.ByName[entry]
	if !ok {
		return "", nil, fmt.Errorf("pdm: entry function %q not defined", entry)
	}
	return f.Name, p.ClosureNodes(f.Name), nil
}

// setNodeNames installs the on-demand renderer for CFG-node variables,
// which saves interning ~one formatted string per program point per
// property. It is derived entirely from the CFG and the node-variable
// map, so a decoded skeleton reinstalls it the same way.
func setNodeNames(sys *core.System, cfg *minic.CFG, slice []int, nodeVar []core.VarID) {
	varNode := make([]int32, sys.NumVars())
	for i := range varNode {
		varNode[i] = -1
	}
	for _, id := range slice {
		varNode[nodeVar[id]] = int32(id)
	}
	sys.SetNameFn(func(v core.VarID) string {
		if int(v) < len(varNode) && varNode[v] >= 0 {
			n := cfg.Nodes[varNode[v]]
			return fmt.Sprintf("S%d@%s:%d", n.ID, n.Fn, n.Line)
		}
		return ""
	})
}

// BuildSkeleton translates the property-independent constraints of p
// reachable from entry ("" means main) and solves them. The IR program
// carries the kernel form and the prebuilt whole-program CFG, so a
// driver sharing one *ir.Program across entries shares the CFG too.
// Only the entry's call-graph closure gets variables and constraints,
// so a skeleton's size (and every property layer's) scales with the
// entry, not the program.
// maybeEvent reports whether some event map the skeleton will later be
// checked against might classify the call as a property event; such
// statements are left to the per-property phase. A nil maybeEvent defers
// every call statement (always sound, never shares call/return
// structure).
func BuildSkeleton(p *ir.Program, entry string, opts core.Options,
	maybeEvent func(call *minic.CallExpr, assignTo string) bool) (*Skeleton, error) {
	prog, cfg := p.MC, p.Graph
	entry, slice, err := entrySlice(p, entry)
	if err != nil {
		return nil, err
	}

	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)

	sys := core.NewSystem(skelAlgebra{}, sig, opts)
	sys.ReserveVars(len(slice) + len(slice)/8)
	nodeVar := make([]core.VarID, len(cfg.Nodes))
	for i := range nodeVar {
		nodeVar[i] = absentVar
	}
	for _, id := range slice {
		nodeVar[id] = sys.Anon()
	}
	setNodeNames(sys, cfg, slice, nodeVar)
	pc := sys.Constant(pcCons)
	sys.AddLowerE(pc, nodeVar[cfg.Entry[entry]])

	sk := &Skeleton{prog: prog, cfg: cfg, entry: entry, sys: sys, slice: slice, nodeVar: nodeVar, pc: pc}
	for _, id := range slice {
		n := cfg.Nodes[id]
		sv := nodeVar[n.ID]
		if n.Kind == minic.NSpawn && n.Call != nil {
			// A goroutine spawn: the spawned function starts from the
			// spawn point's annotations (so events in its body are
			// reachable and carry a witness through the spawn), but its
			// exit never flows back into the spawner — the spawner
			// continues unchanged. This is a sound single-trace
			// abstraction, not a happens-before model; interleavings with
			// the spawner are not enumerated.
			if def, defined := prog.Callee(n.Call); defined {
				sys.AddVarE(sv, nodeVar[cfg.Entry[def.Name]])
			}
			for _, m := range n.Succs {
				sys.AddVarE(sv, nodeVar[m])
			}
			continue
		}
		if n.Kind == minic.NAction && n.Call != nil {
			def, defined := prog.Callee(n.Call)
			if maybeEvent == nil || maybeEvent(n.Call, n.AssignTo) {
				// Event-or-not depends on the property: defer, but
				// pre-declare the call-site constructor so the
				// per-property phase never writes the shared signature.
				d := deferredNode{id: n.ID}
				if defined {
					d.callee = def.Name
					d.cons = sig.MustDeclare(fmt.Sprintf("o@%d", n.ID), 1)
				}
				sk.deferred = append(sk.deferred, d)
				continue
			}
			if defined {
				// Case 3 (§6.1): o_i(S) ⊆ F_entry and o_i^-1(F_exit) ⊆ S_i.
				oc := sig.MustDeclare(fmt.Sprintf("o@%d", n.ID), 1)
				sys.AddLowerE(sys.Cons(oc, sv), nodeVar[cfg.Entry[def.Name]])
				for _, m := range n.Succs {
					sys.AddProjE(oc, 0, nodeVar[cfg.Exit[def.Name]], nodeVar[m])
				}
				continue
			}
		}
		for _, m := range n.Succs {
			sys.AddVarE(sv, nodeVar[m])
		}
	}
	sys.Solve()
	sys.Freeze()
	sk.base = sys.Stats()
	return sk, nil
}

// Entry returns the canonical entry function name.
func (sk *Skeleton) Entry() string { return sk.entry }

// Deferred returns the number of statements whose classification was
// deferred to the per-property phase.
func (sk *Skeleton) Deferred() int { return len(sk.deferred) }

// BaseStats returns the solver statistics of the shared skeleton itself;
// a Result's Base field holds the same value, so a driver can report the
// skeleton's size once and each property's layered work separately.
func (sk *Skeleton) BaseStats() core.Stats { return sk.base }

// CFG returns the control-flow graph the skeleton was built over.
func (sk *Skeleton) CFG() *minic.CFG { return sk.cfg }

// Matches reports whether events classifies any deferred statement as a
// property event. When it does not, a property layered with events puts
// only identity annotations on the skeleton, the same ones for every
// such property.
func (sk *Skeleton) Matches(events *minic.EventMap) bool {
	for _, d := range sk.deferred {
		n := sk.cfg.Nodes[d.id]
		if _, ok := events.Match(n.Call, n.AssignTo); ok {
			return true
		}
	}
	return false
}

// Obs bundles the observability options of one Check: solver and
// skeleton-layer metric hooks, and whether to extract finding
// provenance. A nil *Obs (or nil fields) disables everything; the
// result's violations are identical either way — provenance is a pure
// read of the solver's witness records.
type Obs struct {
	Solver *obs.SolverMetrics
	PDM    *obs.PDMMetrics
	// Explain attaches a derivation chain to every violation.
	Explain bool
}

// Check layers one property onto the skeleton: it forks the solved base
// system, classifies the deferred statements under the property's event
// map, solves the residue online, and collects violations exactly as
// pdm.Check does. Safe for concurrent use.
func (sk *Skeleton) Check(prop *spec.Property, events *minic.EventMap) (*Result, error) {
	return sk.CheckObs(prop, events, nil, nil)
}

// Workspace is the storage a property layer fills: the forked constraint
// system, the program counter's PN query and the matched events. A
// caller that layers one property after another on one Workspace reuses
// their arrays instead of allocating them per layer.
//
// A Result layered in a Workspace is valid until that Workspace's next
// layer, which overwrites it; read everything needed from it before
// then. A Workspace serves one layer at a time, on any skeleton, and its
// zero value is ready to use. A layer that fails or panics leaves it
// ready for the next.
type Workspace struct {
	sys    core.System
	pn     core.PNResult
	events []nodeEvent
}

// CheckObs is Check with observability hooks attached (see Obs), layered
// in ws's storage; a nil ws allocates the layer's storage afresh, and a
// nil o attaches no hooks.
func (sk *Skeleton) CheckObs(prop *spec.Property, events *minic.EventMap, o *Obs, ws *Workspace) (*Result, error) {
	return sk.layer(prop, events, o, ws, false)
}

// layer layers prop on a fork of the skeleton's solved system, in ws's
// storage when ws is not nil, or, with inPlace set, on that system
// itself, which is then no longer a skeleton: only a caller that owns
// sk and drops it afterwards may ask for that (the one-shot Check).
func (sk *Skeleton) layer(prop *spec.Property, events *minic.EventMap, o *Obs, ws *Workspace, inPlace bool) (*Result, error) {
	var alg core.Algebra
	var envTab *subst.Table
	if prop.IsParametric() {
		envTab = subst.NewTable(prop.Mon)
		alg = core.EnvAlgebra{Tab: envTab}
	} else {
		alg = core.FuncAlgebra{Mon: prop.Mon}
	}
	if alg.Identity() != 0 {
		return nil, fmt.Errorf("pdm: algebra must represent identity as annotation 0 to layer on a shared skeleton")
	}
	var dst *core.System
	var pn *core.PNResult
	var layered []nodeEvent
	if ws != nil {
		dst, pn, layered = &ws.sys, &ws.pn, ws.events[:0]
	}
	sys := sk.sys
	if inPlace {
		// The skeleton holds identity annotations only, which alg
		// represents as 0 too (checked above).
		sys.Alg = alg
	} else {
		sys = sys.ForkInto(dst, alg)
		if o != nil && o.PDM != nil {
			o.PDM.SkeletonForks.Inc()
		}
	}
	if o != nil {
		sys.SetMetrics(o.Solver)
	}

	// annotOf computes the edge annotation for an event.
	annotOf := func(ev minic.Event) (core.Annot, error) {
		f, ok := prop.Mon.SymbolFuncByName(ev.Symbol)
		if !ok {
			return 0, fmt.Errorf("pdm: event symbol %q not in property alphabet", ev.Symbol)
		}
		if envTab == nil {
			return core.Annot(f), nil
		}
		param := prop.ParamOf[ev.Symbol]
		if param == "" || ev.Label == "" {
			return core.Annot(envTab.FromFunc(f)), nil
		}
		return core.Annot(envTab.Instantiate(param, ev.Label, f)), nil
	}

	ident := alg.Identity()
	// Match each deferred statement once. The matches, in node order as
	// deferred is, give a parametric property its pruned labels; the
	// ones layered with their annotations stay for the Result.
	for _, d := range sk.deferred {
		n := sk.cfg.Nodes[d.id]
		if ev, ok := events.Match(n.Call, n.AssignTo); ok {
			layered = append(layered, nodeEvent{node: n, ev: ev})
		}
	}
	var pruned map[string]bool
	if envTab != nil {
		pruned = prunedLabels(prop, layered)
	}
	matched, kept := 0, 0
	for _, d := range sk.deferred {
		n := sk.cfg.Nodes[d.id]
		sv := sk.nodeVar[n.ID]
		if matched < len(layered) && layered[matched].node == n {
			ev := layered[matched].ev
			matched++
			if ev.Label != "" && prop.ParamOf[ev.Symbol] != "" && pruned[ev.Label] {
				for _, m := range n.Succs {
					sys.AddVar(sv, sk.nodeVar[m], ident)
				}
				if o != nil && o.PDM != nil {
					o.PDM.PrunedEvents.Inc()
				}
				continue
			}
			a, err := annotOf(ev)
			if err != nil {
				return nil, err
			}
			layered[kept] = nodeEvent{node: n, annot: a}
			kept++
			for _, m := range n.Succs {
				sys.AddVar(sv, sk.nodeVar[m], a)
				if o != nil && o.PDM != nil {
					o.PDM.LayeredEvents.Inc()
				}
			}
			continue
		}
		if d.callee != "" {
			sys.AddLowerE(sys.Cons(d.cons, sv), sk.nodeVar[sk.cfg.Entry[d.callee]])
			for _, m := range n.Succs {
				sys.AddProjE(d.cons, 0, sk.nodeVar[sk.cfg.Exit[d.callee]], sk.nodeVar[m])
			}
			continue
		}
		for _, m := range n.Succs {
			sys.AddVar(sv, sk.nodeVar[m], ident)
		}
	}
	layered = layered[:kept]
	if ws != nil {
		ws.events = layered
	}
	sys.Solve()
	if o != nil && o.Solver != nil {
		sys.FlushSizeMetrics()
	}

	res := &Result{
		Sys:     sys,
		Base:    sk.base,
		NodeVar: sk.nodeVar,
		prog:    sk.prog,
		cfg:     sk.cfg,
		prop:    prop,
		pcNode:  sk.pc,
		envTab:  envTab,
		slice:   sk.slice,
		events:  layered,
		alg:     alg,
		explain: o != nil && o.Explain,
	}
	res.PN = sys.PNReachInto(pn, sk.pc)
	res.collectViolations(alg)
	return res, nil
}

// prunedLabels is the per-label viability filter for parametric
// properties. A catch-all event rule can match receivers that have
// nothing to do with the property — a counting waitgroup checker's
// `Add` rule matching every metrics counter in the program, say — and
// each distinct label mints fresh environment entries that the solver
// must intern, compose, and propagate; on method-name-heavy trees that
// is the dominant cost of a parametric check.
//
// An entry bound to label l is built exclusively from l's own symbol
// functions plus those of unlabeled events (which reach every entry
// through the residual), and every consumer of entries — violation
// collection, exit-leak queries — tests them with Mon.Accepting, i.e.
// applied at the machine's start state. So when no word over that
// symbol set can drive the machine from start to an accept state, label
// l can never produce a finding, and its events may be layered as
// identity edges without changing any result.
//
// The reasoning needs entries to track exactly one label, so pruning is
// restricted to single-parameter properties: with one parameter, two
// entries for different labels conflict and never merge, whereas
// multi-parameter entries could mix symbol sets across labels. Returns
// nil (prune nothing) when the property is multi-parameter or an event
// symbol is not in the machine's alphabet (the layering loop surfaces
// that error).
func prunedLabels(prop *spec.Property, matched []nodeEvent) map[string]bool {
	params := map[string]bool{}
	for _, p := range prop.ParamOf {
		if p != "" {
			params[p] = true
		}
	}
	if len(params) != 1 {
		return nil
	}
	mach := prop.Mon.M
	global := map[dfa.Symbol]bool{}
	labelSyms := map[string]map[dfa.Symbol]bool{}
	for _, m := range matched {
		ev := m.ev
		sym, ok := mach.Alpha.Lookup(ev.Symbol)
		if !ok {
			return nil
		}
		if prop.ParamOf[ev.Symbol] == "" || ev.Label == "" {
			global[sym] = true
			continue
		}
		set := labelSyms[ev.Label]
		if set == nil {
			set = map[dfa.Symbol]bool{}
			labelSyms[ev.Label] = set
		}
		set[sym] = true
	}
	pruned := map[string]bool{}
	for lbl, syms := range labelSyms {
		for s := range global {
			syms[s] = true
		}
		if !acceptReachable(mach, syms) {
			pruned[lbl] = true
		}
	}
	return pruned
}

// acceptReachable reports whether some word over syms drives m from its
// start state to an accept state.
func acceptReachable(m *dfa.DFA, syms map[dfa.Symbol]bool) bool {
	if m.Accept[m.Start] {
		return true
	}
	visited := make([]bool, m.NumStates)
	visited[m.Start] = true
	queue := []dfa.State{m.Start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for sym := range syms {
			t := m.Step(s, sym)
			if t == dfa.None || visited[t] {
				continue
			}
			if m.Accept[t] {
				return true
			}
			visited[t] = true
			queue = append(queue, t)
		}
	}
	return false
}
