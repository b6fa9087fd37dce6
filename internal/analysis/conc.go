package analysis

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"rasc/internal/ir"
	"rasc/internal/minic"
)

// This file is the driver's concurrency model. The translation marks
// goroutine spawns (NSpawn), per-object lock events (ConcLock/...),
// channel operations and shared-variable accesses (NAccess) in the CFG;
// here those are lifted to an abstraction suitable for lockset checking:
//
//   - a goroutine abstraction: one goroutine per static spawn site
//     reachable from the entry (plus the entry goroutine g0), marked
//     multi-instance when its spawn sits in a loop or in a
//     multi-instance spawner;
//   - a flow relation over the interprocedural CFG in which a spawn
//     node continues to its successors (the spawner's flow) and never
//     returns from the spawned callee (the child's flow starts fresh at
//     the callee's entry), walked per goroutine root only within the
//     root's call-graph closure — a goroutine can return only into
//     callers on its own stack;
//   - a lockset dataflow over that relation, per goroutine root: the
//     set of (lock, mode) pairs possibly held at each node, seeded with
//     the empty lockset (a new goroutine holds nothing).
//
// Soundness caveats (also in DESIGN.md): there is no happens-before
// order — an access before a spawn is treated as concurrent with the
// spawned goroutine, channel synchronization establishes no ordering,
// and call/return flow is context-insensitive (locksets can flow from
// one call site's entry to another's return). The model over-reports
// rather than misses: every lock that MUST be held is in the
// intersection of a node's locksets.

// lockHold is one held lock with its mode (write for Lock, read for
// RLock). Two read holds of the same lock do not exclude each other.
type lockHold struct {
	Name  string
	Write bool
}

// lockset is a canonically sorted set of holds.
type lockset []lockHold

func (ls lockset) key() string {
	var b strings.Builder
	for _, h := range ls {
		b.WriteString(h.Name)
		if h.Write {
			b.WriteString("/w;")
		} else {
			b.WriteString("/r;")
		}
	}
	return b.String()
}

// with returns ls ∪ {h}, canonical.
func (ls lockset) with(h lockHold) lockset {
	for _, x := range ls {
		if x == h {
			return ls
		}
	}
	out := make(lockset, 0, len(ls)+1)
	out = append(out, ls...)
	out = append(out, h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return !out[i].Write && out[j].Write
	})
	return out
}

// without returns ls \ {h}.
func (ls lockset) without(h lockHold) lockset {
	for i, x := range ls {
		if x == h {
			out := make(lockset, 0, len(ls)-1)
			out = append(out, ls[:i]...)
			out = append(out, ls[i+1:]...)
			return out
		}
	}
	return ls
}

// transfer applies a node's lock event to the lockset holding BEFORE the
// node (events happen on outgoing edges, matching §6.1's constraint
// scheme).
func transfer(n *minic.Node, ls lockset) lockset {
	switch n.Conc {
	case minic.ConcLock:
		return ls.with(lockHold{n.ConcArg, true})
	case minic.ConcRLock:
		return ls.with(lockHold{n.ConcArg, false})
	case minic.ConcUnlock:
		return ls.without(lockHold{n.ConcArg, true})
	case minic.ConcRUnlock:
		return ls.without(lockHold{n.ConcArg, false})
	}
	return ls
}

// concModel caches the whole-program CFG, the goroutine flow relation
// and per-root closures and lockset dataflow results for a Package.
type concModel struct {
	prog *ir.Program
	cfg  *minic.CFG
	// flowSuccs is the single-goroutine flow relation: intraprocedural
	// edges, call site -> callee entry, callee exit -> every return site
	// (context-insensitive). Spawn nodes flow only to their successors.
	// Walks restrict it to a root's closure (see closure).
	flowSuccs [][]int

	mu       sync.Mutex
	closures map[string][]int             // root fn -> closure's nodes, ascending
	lsCache  map[string]map[int][]lockset // root fn -> node -> locksets
	gsCache  map[string]*entryGoroutines  // entry fn -> its goroutines
}

// entryGoroutines is one entry's goroutine abstraction, built once and
// shared read-only by that entry's race and lockorder jobs.
type entryGoroutines struct {
	once sync.Once
	gs   []*goroutine
}

// concModel builds (once) the concurrency model of the package.
func (p *Package) concModel() *concModel {
	p.concOnce.Do(func() {
		cfg := p.Prog.Graph
		m := &concModel{
			prog:      p.Prog,
			cfg:       cfg,
			flowSuccs: make([][]int, len(cfg.Nodes)),
			closures:  map[string][]int{},
			lsCache:   map[string]map[int][]lockset{},
			gsCache:   map[string]*entryGoroutines{},
		}
		retSites := map[string][]int{}
		callee := func(n *minic.Node) *minic.FuncDef {
			if n.Call == nil {
				return nil
			}
			def, ok := cfg.Prog.Callee(n.Call)
			if !ok {
				return nil
			}
			return def
		}
		for _, n := range cfg.Nodes {
			if n.Kind == minic.NAction {
				if def := callee(n); def != nil {
					retSites[def.Name] = append(retSites[def.Name], n.Succs...)
				}
			}
		}
		for _, n := range cfg.Nodes {
			switch {
			case n.Kind == minic.NAction && callee(n) != nil:
				m.flowSuccs[n.ID] = []int{cfg.Entry[callee(n).Name]}
			case n.Kind == minic.NExit:
				m.flowSuccs[n.ID] = retSites[n.Fn]
			default:
				m.flowSuccs[n.ID] = n.Succs
			}
		}
		p.conc = m
	})
	return p.conc
}

// goroutine is one abstract goroutine: the entry goroutine, or one
// static spawn site.
type goroutine struct {
	ID    int
	Root  string      // root function (canonical name)
	Spawn *minic.Node // nil for the entry goroutine
	Multi bool        // more than one instance may run concurrently
	// Prefix is the witness trace from the program entry to this
	// goroutine's spawn statement (empty for the entry goroutine).
	Prefix []TraceStep
	// reach is the set of nodes this goroutine may execute; parent is a
	// BFS tree over the flow relation for witness paths.
	reach  map[int]bool
	parent map[int]int
}

// closure returns (and memoizes) the CFG nodes of root's call-graph
// closure, ascending. Flow from a callee's exit to a return site outside
// it would "return" into a caller that is never on the goroutine's
// stack, so every walk from root stays inside it.
func (m *concModel) closure(root string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	in, ok := m.closures[root]
	if !ok {
		in = m.prog.ClosureNodes(root)
		m.closures[root] = in
	}
	return in
}

// inClosure reports whether node id lies in closure, an ascending node
// list.
func inClosure(closure []int, id int) bool {
	_, ok := slices.BinarySearch(closure, id)
	return ok
}

// explore fills g.reach and g.parent by BFS from the root's entry.
func (m *concModel) explore(g *goroutine) {
	in := m.closure(g.Root)
	g.reach = map[int]bool{}
	g.parent = map[int]int{}
	start := m.cfg.Entry[g.Root]
	g.reach[start] = true
	g.parent[start] = -1
	queue := []int{start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, s := range m.flowSuccs[id] {
			if inClosure(in, s) && !g.reach[s] {
				g.reach[s] = true
				g.parent[s] = id
				queue = append(queue, s)
			}
		}
	}
}

// path returns the witness trace from the goroutine's root entry to node
// id, keeping entry hops and event nodes.
func (m *concModel) path(p *Package, g *goroutine, id int) []TraceStep {
	var ids []int
	for at := id; at >= 0; at = g.parent[at] {
		ids = append(ids, at)
	}
	out := append([]TraceStep(nil), g.Prefix...)
	for i := len(ids) - 1; i >= 0; i-- {
		n := m.cfg.Nodes[ids[i]]
		switch n.Kind {
		case minic.NEntry:
			out = append(out, TraceStep{File: p.fileOf(n.Fn), Fn: n.Fn, Line: n.Line, Enter: true})
		case minic.NAction, minic.NSpawn, minic.NAccess:
			out = append(out, TraceStep{File: p.fileOf(n.Fn), Fn: n.Fn, Line: n.Line})
		}
	}
	return out
}

// inCycle reports whether node id can reach itself through the flow
// relation within root's closure (a spawn in a loop or in a recursive
// function spawns many instances).
func (m *concModel) inCycle(root string, id int) bool {
	in := m.closure(root)
	seen := map[int]bool{}
	queue := append([]int(nil), m.flowSuccs[id]...)
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if !inClosure(in, at) {
			continue
		}
		if at == id {
			return true
		}
		if seen[at] {
			continue
		}
		seen[at] = true
		queue = append(queue, m.flowSuccs[at]...)
	}
	return false
}

// goroutines returns (and memoizes) the abstract goroutines of an entry
// function; concurrent callers for one entry block on one enumeration.
// The result is shared: callers must not modify it.
func (m *concModel) goroutines(p *Package, entry string) []*goroutine {
	m.mu.Lock()
	e := m.gsCache[entry]
	if e == nil {
		e = &entryGoroutines{}
		m.gsCache[entry] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.gs = m.enumerate(p, entry) })
	if e.gs == nil {
		// enumerate, which always yields g0, panicked in an earlier job;
		// the Once will not run again, and an empty list would read as
		// "no findings".
		panic(errEarlierPanic)
	}
	return e.gs
}

// enumerate builds the abstract goroutines of an entry function: g0
// (the entry itself) plus one per reachable static spawn site, each
// owned by the first goroutine (in discovery order) that reaches it.
func (m *concModel) enumerate(p *Package, entry string) []*goroutine {
	g0 := &goroutine{ID: 0, Root: entry}
	m.explore(g0)
	out := []*goroutine{g0}
	claimed := map[int]bool{}
	for qi := 0; qi < len(out); qi++ {
		g := out[qi]
		// Spawn sites in ascending node order, for determinism.
		var spawns []int
		for id := range g.reach {
			if m.cfg.Nodes[id].Kind == minic.NSpawn {
				spawns = append(spawns, id)
			}
		}
		sort.Ints(spawns)
		for _, id := range spawns {
			if claimed[id] {
				continue
			}
			n := m.cfg.Nodes[id]
			def, ok := m.cfg.Prog.Callee(n.Call)
			if !ok {
				continue // external spawn: body unknown
			}
			claimed[id] = true
			// The prefix ends at the spawn statement; the child's own
			// path starts with its root's entry hop.
			prefix := m.path(p, g, id)
			child := &goroutine{
				ID:     len(out),
				Root:   def.Name,
				Spawn:  n,
				Multi:  g.Multi || m.inCycle(g.Root, id),
				Prefix: prefix,
			}
			m.explore(child)
			out = append(out, child)
		}
	}
	return out
}

// locksets runs (and memoizes) the lockset dataflow from root's entry
// with the empty seed. Every goroutine starts holding nothing, so the
// result depends only on the root function.
func (m *concModel) locksets(root string) map[int][]lockset {
	m.mu.Lock()
	if cached, ok := m.lsCache[root]; ok {
		m.mu.Unlock()
		return cached
	}
	m.mu.Unlock()

	in := m.closure(root)
	states := map[int]map[string]lockset{}
	type item struct {
		node int
		ls   lockset
	}
	start := m.cfg.Entry[root]
	states[start] = map[string]lockset{"": nil}
	queue := []item{{start, nil}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		out := transfer(m.cfg.Nodes[it.node], it.ls)
		k := out.key()
		for _, s := range m.flowSuccs[it.node] {
			if !inClosure(in, s) {
				continue
			}
			if states[s] == nil {
				states[s] = map[string]lockset{}
			}
			if _, seen := states[s][k]; !seen {
				states[s][k] = out
				queue = append(queue, item{s, out})
			}
		}
	}
	result := make(map[int][]lockset, len(states))
	for id, set := range states {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			result[id] = append(result[id], set[k])
		}
	}
	m.mu.Lock()
	m.lsCache[root] = result
	m.mu.Unlock()
	return result
}

// mustHold intersects a node's locksets: the locks held on EVERY path
// reaching it.
func mustHold(sets []lockset) lockset {
	if len(sets) == 0 {
		return nil
	}
	out := sets[0]
	for _, ls := range sets[1:] {
		var next lockset
		for _, h := range out {
			for _, x := range ls {
				if x == h {
					next = append(next, h)
					break
				}
			}
		}
		out = next
		if len(out) == 0 {
			break
		}
	}
	return out
}

// excluded reports whether two critical sections are mutually exclusive:
// some lock is must-held by both, with at least one side in write mode.
func excluded(a, b lockset) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Name == y.Name && (x.Write || y.Write) {
				return true
			}
		}
	}
	return false
}

// access is one shared-variable access in one goroutine.
type access struct {
	g    *goroutine
	node *minic.Node
	must lockset
}

// raceDiagnostics is the lockset-based data-race checker: two accesses
// to the same shared variable, at least one a write, from goroutines
// that may run concurrently, with no common must-held lock. One finding
// is reported per variable (the first racy pair in node order), carrying
// a witness trace per goroutine.
func raceDiagnostics(pkg *Package, c *Checker, entry string) []Diagnostic {
	m := pkg.concModel()
	gs := m.goroutines(pkg, entry)
	if len(gs) == 1 {
		return nil // single goroutine: no races
	}
	byVar := map[string][]access{}
	var vars []string
	for _, g := range gs {
		ls := m.locksets(g.Root)
		var ids []int
		for id := range g.reach {
			if m.cfg.Nodes[id].Kind == minic.NAccess {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			n := m.cfg.Nodes[id]
			if _, seen := byVar[n.ConcArg]; !seen {
				vars = append(vars, n.ConcArg)
			}
			byVar[n.ConcArg] = append(byVar[n.ConcArg], access{g: g, node: n, must: mustHold(ls[id])})
		}
	}
	sort.Strings(vars)
	var out []Diagnostic
	for _, v := range vars {
		accs := byVar[v]
		if d, ok := firstRace(pkg, m, c, entry, v, accs); ok {
			out = append(out, d)
		}
	}
	return out
}

// firstRace scans the accesses of one variable for the first racy pair.
func firstRace(pkg *Package, m *concModel, c *Checker, entry, v string, accs []access) (Diagnostic, bool) {
	for i, a := range accs {
		for j := i; j < len(accs); j++ {
			b := accs[j]
			write := a.node.Conc == minic.ConcStore || b.node.Conc == minic.ConcStore
			if !write {
				continue
			}
			// Concurrent: different goroutines, or two instances of a
			// multi-instance goroutine. The same single access races
			// with itself only when its goroutine is multi-instance.
			if a.g == b.g && !a.g.Multi {
				continue
			}
			if i == j && !a.g.Multi {
				continue
			}
			if excluded(a.must, b.must) {
				continue
			}
			d := Diagnostic{
				Checker:     c.Name,
				Severity:    c.Severity,
				File:        pkg.fileOf(a.node.Fn),
				Line:        a.node.Line,
				Message:     c.message(v),
				Label:       v,
				Entry:       entry,
				Trace:       m.path(pkg, a.g, a.node.ID),
				SecondTrace: m.path(pkg, b.g, b.node.ID),
			}
			return d, true
		}
	}
	return Diagnostic{}, false
}

// lockOrderDiagnostics is the deadlock-order checker: it records, per
// goroutine, every "acquire L while holding M" edge seen by the lockset
// dataflow, and reports each inverted pair (A taken before B on one
// path, B before A on another) once, with a witness trace per acquire
// site. Read acquisitions participate: an RLock waiting behind a writer
// deadlocks the same way.
func lockOrderDiagnostics(pkg *Package, c *Checker, entry string) []Diagnostic {
	m := pkg.concModel()
	gs := m.goroutines(pkg, entry)
	type witness struct {
		g    *goroutine
		node *minic.Node
	}
	edges := map[string]map[string]witness{} // held -> acquired -> first witness
	var heldNames []string
	for _, g := range gs {
		ls := m.locksets(g.Root)
		var ids []int
		for id := range g.reach {
			op := m.cfg.Nodes[id].Conc
			if op == minic.ConcLock || op == minic.ConcRLock {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			n := m.cfg.Nodes[id]
			for _, set := range ls[id] {
				for _, h := range set {
					if h.Name == n.ConcArg {
						continue
					}
					if edges[h.Name] == nil {
						edges[h.Name] = map[string]witness{}
						heldNames = append(heldNames, h.Name)
					}
					if _, seen := edges[h.Name][n.ConcArg]; !seen {
						edges[h.Name][n.ConcArg] = witness{g, n}
					}
				}
			}
		}
	}
	sort.Strings(heldNames)
	var out []Diagnostic
	for _, a := range heldNames {
		for _, b := range sortedKeys(edges[a]) {
			if a >= b {
				continue // report each unordered pair once, from the smaller name
			}
			back, ok := edges[b]
			if !ok {
				continue
			}
			inv, ok := back[a]
			if !ok {
				continue
			}
			fwd := edges[a][b]
			label := a + " and " + b
			out = append(out, Diagnostic{
				Checker:     c.Name,
				Severity:    c.Severity,
				File:        pkg.fileOf(fwd.node.Fn),
				Line:        fwd.node.Line,
				Message:     c.message(label),
				Label:       label,
				Entry:       entry,
				Trace:       m.path(pkg, fwd.g, fwd.node.ID),
				SecondTrace: m.path(pkg, inv.g, inv.node.ID),
			})
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
