package analysis

import (
	"slices"
	"sort"
	"sync"

	"rasc/internal/bitvector"
	"rasc/internal/ir"
	"rasc/internal/minic"
)

// This file is the driver's concurrency model. The translation marks
// goroutine spawns (NSpawn), per-object lock events (ConcLock/...),
// channel operations and shared-variable accesses (NAccess) in the CFG;
// here those are lifted to an abstraction for lockset checking:
//
//   - one goroutine per static spawn site reachable from the entry, plus
//     the entry goroutine g0; multi-instance when its spawn sits in a
//     loop or in a multi-instance spawner;
//   - a flow relation in which a spawn node continues to its successors
//     and the child's flow starts fresh at the callee's entry, walked per
//     goroutine root within the root's call-graph closure. Goroutine
//     reach, witness paths and the multi-instance cycle test walk it
//     context-insensitively: a callee's exit flows to every return site;
//   - lock facts per goroutine root from internal/bitvector's summary
//     engine over the same closure, exact over valid paths (every return
//     matched with its call): the locks held on some path to a node
//     (lockorder) and on every path (race).
//
// Soundness caveats (also in DESIGN.md): there is no happens-before
// order — an access before a spawn is treated as concurrent with the
// spawned goroutine, and channel synchronization establishes no
// ordering. A node in a goroutine's reach that no valid path reaches
// contributes no access or lock site.

// concModel caches the whole-program CFG, the goroutine flow relation
// and per-root closures and lock facts for a Package.
type concModel struct {
	prog *ir.Program
	cfg  *minic.CFG
	// flowSuccs is the single-goroutine flow relation: intraprocedural
	// edges, call site -> callee entry, callee exit -> every return site
	// (context-insensitive). Spawn nodes flow only to their successors.
	// Walks restrict it to a root's closure (see closure).
	flowSuccs [][]int

	mu       sync.Mutex
	closures map[string]*closure         // root fn -> its call-graph closure
	locks    map[string]*rootLocks       // root fn -> its lock facts
	gsCache  map[string]*entryGoroutines // entry fn -> its goroutines
}

// closure is a root's call-graph closure, its functions ascending, with
// their nodes numbered in that order: function f's nodes take the slots
// from base[f], which is the layout bitvector's engine keeps per-node
// data in. Walks from the root index their per-node state by slot.
type closure struct {
	funcs []minic.FuncRange
	base  []int // len(funcs)+1 entries; base[len(funcs)] is the slot count
}

// slot returns node's slot, or -1 for a node outside the closure.
func (c *closure) slot(node int) int {
	f := bitvector.Index(c.funcs, node)
	if f < 0 {
		return -1
	}
	return c.base[f] + node - c.funcs[f].Lo
}

// size returns the number of slots.
func (c *closure) size() int { return c.base[len(c.funcs)] }

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
			closures:  map[string]*closure{},
			locks:     map[string]*rootLocks{},
			gsCache:   map[string]*entryGoroutines{},
		}
		retSites := map[string][]int{}
		for _, n := range cfg.Nodes {
			if c := m.callee(n); c != "" {
				retSites[c] = append(retSites[c], n.Succs...)
			}
		}
		for _, n := range cfg.Nodes {
			switch c := m.callee(n); {
			case c != "":
				m.flowSuccs[n.ID] = []int{cfg.Entry[c]}
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

// callee returns the defined function a call node calls, "" for every
// other node (a spawn node never returns from its callee).
func (m *concModel) callee(n *minic.Node) string {
	if n.Kind == minic.NAction && n.Call != nil {
		if def, ok := m.cfg.Prog.Callee(n.Call); ok {
			return def.Name
		}
	}
	return ""
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
	// in is the root's closure. By its slots, reach marks the nodes this
	// goroutine may execute, and parent is a BFS tree over the flow
	// relation for witness paths: the node each was first reached from,
	// -1 at the root's entry.
	in     *closure
	reach  []bool
	parent []int32
}

// nodes returns the nodes g may execute that keep accepts, ascending.
func (g *goroutine) nodes(keep func(id int) bool) []int {
	var out []int
	for f, fn := range g.in.funcs {
		for id := fn.Lo; id < fn.Hi; id++ {
			if g.reach[g.in.base[f]+id-fn.Lo] && keep(id) {
				out = append(out, id)
			}
		}
	}
	return out
}

// closure returns (and memoizes) root's call-graph closure. Flow from a
// callee's exit to a return site outside it would "return" into a caller
// that is never on the goroutine's stack, so every walk from root stays
// inside it.
func (m *concModel) closure(root string) *closure {
	m.mu.Lock()
	defer m.mu.Unlock()
	in, ok := m.closures[root]
	if !ok {
		in = &closure{base: []int{0}}
		for _, id := range m.prog.Reachable(root) {
			fn := m.cfg.Funcs[id]
			in.base = append(in.base, in.size()+fn.Hi-fn.Lo)
			in.funcs = append(in.funcs, fn)
		}
		m.closures[root] = in
	}
	return in
}

// explore fills g.reach and g.parent by BFS from the root's entry.
func (m *concModel) explore(g *goroutine) {
	in := m.closure(g.Root)
	g.in, g.reach, g.parent = in, make([]bool, in.size()), make([]int32, in.size())
	start := m.cfg.Entry[g.Root]
	g.reach[in.slot(start)] = true
	g.parent[in.slot(start)] = -1
	queue := []int{start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, s := range m.flowSuccs[id] {
			if k := in.slot(s); k >= 0 && !g.reach[k] {
				g.reach[k] = true
				g.parent[k] = int32(id)
				queue = append(queue, s)
			}
		}
	}
}

// path returns the witness trace from the goroutine's root entry to node
// id, keeping entry hops and event nodes.
func (m *concModel) path(p *Package, g *goroutine, id int) []TraceStep {
	var ids []int
	for at := id; at >= 0; at = int(g.parent[g.in.slot(at)]) {
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
	seen := make([]bool, in.size())
	queue := append([]int(nil), m.flowSuccs[id]...)
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		k := in.slot(at)
		if k < 0 {
			continue
		}
		if at == id {
			return true
		}
		if seen[k] {
			continue
		}
		seen[k] = true
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
	// Root is canonical: an entry may be a bare method alias, and the
	// CFG's Entry and the lock facts know only canonical names.
	g0 := &goroutine{ID: 0, Root: p.Prog.ByName[entry].Name}
	m.explore(g0)
	out := []*goroutine{g0}
	claimed := map[int]bool{}
	for qi := 0; qi < len(out); qi++ {
		g := out[qi]
		// Spawn sites in ascending node order, for determinism.
		spawns := g.nodes(func(id int) bool { return m.cfg.Nodes[id].Kind == minic.NSpawn })
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

// rootLocks is one goroutine root's lock facts. Lock k of names has a
// write hold 2k and a read hold 2k+1; fact h is "hold h held", and fact
// 2len(names)+h is "hold h possibly free".
type rootLocks struct {
	names []string // the locks of the root's closure, sorted
	sol   *bitvector.Solution
}

// lockFacts solves (and memoizes) root's lock facts from its entry, with
// every hold possibly free: a goroutine starts holding nothing, so they
// depend only on the root function.
func (m *concModel) lockFacts(root string) *rootLocks {
	m.mu.Lock()
	l, ok := m.locks[root]
	m.mu.Unlock()
	if ok {
		return l
	}
	funcs, l := m.closure(root).funcs, &rootLocks{}
	for _, f := range funcs {
		for _, n := range m.cfg.Nodes[f.Lo:f.Hi] {
			if lockEvent(n.Conc) {
				l.names = append(l.names, n.ConcArg)
			}
		}
	}
	slices.Sort(l.names)
	l.names = slices.Compact(l.names)
	holds := 2 * len(l.names)
	free := make([]int, holds)
	for h := range free {
		free[h] = holds + h
	}
	l.sol = bitvector.Solve(bitvector.Problem{CFG: m.cfg, Funcs: funcs, Facts: 2 * holds,
		Effect: func(n *minic.Node) (gen, kill []int) {
			if !lockEvent(n.Conc) {
				return nil, nil
			}
			k, _ := slices.BinarySearch(l.names, n.ConcArg)
			h := 2 * k
			if n.Conc == minic.ConcRLock || n.Conc == minic.ConcRUnlock {
				h++
			}
			if n.Conc == minic.ConcLock || n.Conc == minic.ConcRLock {
				return []int{h}, []int{holds + h}
			}
			return []int{holds + h}, []int{h}
		},
		Callee: m.callee, Roots: []string{root}, Seed: free})
	m.mu.Lock()
	m.locks[root] = l
	m.mu.Unlock()
	return l
}

// lockEvent reports whether op takes or releases a lock.
func lockEvent(op minic.ConcOp) bool {
	return op == minic.ConcLock || op == minic.ConcUnlock || op == minic.ConcRLock || op == minic.ConcRUnlock
}

// mustHeld returns the locks held on every valid path reaching node,
// each mapped to whether a write hold is among them.
func (l *rootLocks) mustHeld(node int) map[string]bool {
	out := map[string]bool{}
	for h := range 2 * len(l.names) {
		if !l.sol.Has(node, 2*len(l.names)+h) {
			out[l.names[h/2]] = out[l.names[h/2]] || h%2 == 0
		}
	}
	return out
}

// excluded reports whether two critical sections are mutually exclusive:
// some lock is must-held by both, with at least one side in write mode.
func excluded(a, b map[string]bool) bool {
	for name, aw := range a {
		if bw, ok := b[name]; ok && (aw || bw) {
			return true
		}
	}
	return false
}

// access is one shared-variable access in one goroutine.
type access struct {
	g    *goroutine
	node *minic.Node
	must map[string]bool
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
		l := m.lockFacts(g.Root)
		ids := g.nodes(func(id int) bool { return m.cfg.Nodes[id].Kind == minic.NAccess && l.sol.Reached(id) })
		for _, id := range ids {
			n := m.cfg.Nodes[id]
			if _, seen := byVar[n.ConcArg]; !seen {
				vars = append(vars, n.ConcArg)
			}
			byVar[n.ConcArg] = append(byVar[n.ConcArg], access{g: g, node: n, must: l.mustHeld(id)})
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
// goroutine, every "acquire L while holding M" edge its lock facts show,
// and reports each inverted pair (A taken before B on one path, B before
// A on another) once, with a witness trace per acquire site. Read
// acquisitions participate: an RLock waiting behind a writer deadlocks
// the same way.
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
		l := m.lockFacts(g.Root)
		ids := g.nodes(func(id int) bool {
			op := m.cfg.Nodes[id].Conc
			return (op == minic.ConcLock || op == minic.ConcRLock) && l.sol.Reached(id)
		})
		for _, id := range ids {
			n := m.cfg.Nodes[id]
			for k, held := range l.names {
				if held == n.ConcArg || !l.sol.Has(id, 2*k) && !l.sol.Has(id, 2*k+1) {
					continue // not held, in either mode, on any valid path
				}
				if edges[held] == nil {
					edges[held] = map[string]witness{}
					heldNames = append(heldNames, held)
				}
				if _, seen := edges[held][n.ConcArg]; !seen {
					edges[held][n.ConcArg] = witness{g, n}
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
