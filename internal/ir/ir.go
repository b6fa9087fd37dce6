// Package ir is the frontend-neutral middle layer of the toolkit: a
// Program/Function representation with stable IDs, content fingerprints
// and a call-graph SCC DAG, to which every front end (the Go translator
// in gosrc, the mini-C parser) lowers, and which the pushdown model
// checker (pdm) and the package driver (analysis) consume.
//
// The operational core of the IR is the minic kernel — statements, the
// whole-program CFG, event maps — whose types ir names directly, as its
// consumers do. What ir adds on top of the kernel is identity and change
// tracking:
//
//   - every function gets a stable ID (its index in definition order)
//     and a content Fingerprint: a hash of its normalized body together
//     with the resolved canonical name of every callee, so that any
//     edit that could change analysis results — including a change of
//     call resolution elsewhere in the package — changes the hash;
//   - the resolved call graph (calls and goroutine spawns) is condensed
//     into strongly connected components, ordered bottom-up, and each
//     function receives a Summary key combining its own fingerprint
//     with the transitive fingerprints of everything it can reach.
//
// A function's Summary therefore identifies the exact analysis input of
// the subprogram rooted at it: two programs in which a function has
// equal Summaries produce identical analysis results for that function
// as an entry. Incremental drivers key their per-entry caches by it and
// re-solve, after an edit, exactly the edited function's SCC and its
// transitive callers (see internal/analysis).
package ir

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"rasc/internal/minic"
)

// SourceFile is one source file handed to a front end.
type SourceFile struct {
	// Name is the file's (display) path, used in positions and notes.
	Name string `json:"name"`
	// Src is the file's content.
	Src string `json:"src"`
}

// Note is a translation remark: a construct a front end's abstraction
// handles imprecisely (goto, duplicate definitions, ambiguous methods).
type Note struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Msg  string `json:"msg"`
}

func (n Note) String() string { return fmt.Sprintf("%s:%d: %s", n.File, n.Line, n.Msg) }

// Meta is the frontend-provided metadata attached to a Program: remarks
// and suppression directives that are not part of any function body.
type Meta struct {
	// Notes lists translation imprecisions, ordered by file then line.
	Notes []Note
	// Ignores maps file name -> line -> checker names named in
	// //rasc:ignore comments on that line. An empty name list means the
	// line suppresses every checker.
	Ignores map[string]map[int][]string
	// FileIgnores maps file name -> checker names named in
	// //rasc:ignore-file comments anywhere in that file. A present file
	// with an empty name list suppresses every checker in the file.
	FileIgnores map[string][]string
	// Shared lists the package-level variables treated as shared state by
	// the concurrency checkers, sorted.
	Shared []string
}

// Function is one defined function with its identity and change-tracking
// metadata.
type Function struct {
	// ID is the function's stable identifier: its index in Program.Funcs
	// (definition order), and in Graph.Funcs, which holds its node range.
	ID int
	// Name is the canonical name, File/Line the definition site.
	Name string
	File string
	Line int
	// Def is the kernel definition.
	Def *minic.FuncDef
	// Callees lists the IDs of defined functions this one calls or
	// spawns, sorted and deduplicated.
	Callees []int
	// SCC is the index of the function's strongly connected component in
	// Program.SCCs.
	SCC int
	// Fingerprint hashes the function's own content: definition site,
	// parameters, normalized body, and the resolved canonical callee of
	// every call expression.
	Fingerprint Digest
	// Summary keys the analysis input of the subprogram rooted here: the
	// function's fingerprint combined with the transitive fingerprints of
	// its SCC and every SCC it can reach.
	Summary Digest
}

// Program is a lowered, frontend-neutral program.
type Program struct {
	// MC is the kernel (minic) program the front end lowered to.
	MC *minic.Program
	// Graph is the whole-program CFG, built once at lowering time.
	Graph *minic.CFG
	// Funcs holds one Function per defined function, indexed by ID.
	Funcs []*Function
	// ByName maps canonical function names to Functions. Kernel aliases
	// (bare method names for uniquely named methods) also resolve here.
	ByName map[string]*Function
	// SCCs lists the call graph's strongly connected components in
	// bottom-up order: every callee SCC precedes its callers.
	SCCs [][]int
	// Meta carries frontend notes and suppression directives.
	Meta

	rootsOnce sync.Once
	roots     []string
}

// New lowers a kernel program into the IR: it builds the CFG, resolves
// the call graph, condenses it into SCCs and computes fingerprints and
// summary keys. The meta block comes from the front end (zero for bare
// kernel programs).
func New(mc *minic.Program, meta Meta) (*Program, error) { return NewIncremental(mc, meta, nil) }

// build lowers a kernel program into the IR minus fingerprints: CFG,
// call graph, SCC condensation. Given a previous lowering under the
// same resolution digest, every function whose *FuncDef prev lowered
// too keeps prev's Fingerprint, and prev's CFG nodes when it lands at
// the node IDs it had (see NewIncremental); the others are left
// unhashed.
func build(mc *minic.Program, meta Meta, prev *Program) (*Program, error) {
	p := &Program{MC: mc, ByName: make(map[string]*Function, len(mc.ByName)), Meta: meta}
	// from[i] is the previous ID of function i when prev lowered its
	// FuncDef, else -1; nil lays out every function.
	var from []int
	var prevGraph *minic.CFG
	if prev != nil {
		from, prevGraph = make([]int, len(mc.Funcs)), prev.Graph
		for i, fd := range mc.Funcs {
			from[i] = -1
			if pf, ok := prev.ByName[fd.Name]; ok && pf.Def == fd {
				from[i] = pf.ID
			}
		}
	}
	cfg, err := minic.BuildFrom(mc, prevGraph, from)
	if err != nil {
		return nil, fmt.Errorf("ir: %w", err)
	}
	p.Graph = cfg
	index := make(map[string]int, len(mc.Funcs))
	p.Funcs = make([]*Function, len(mc.Funcs))
	for i, fd := range mc.Funcs {
		p.Funcs[i] = &Function{ID: i, Name: fd.Name, File: fd.File, Line: fd.Line, Def: fd}
		index[fd.Name] = i
	}
	// ByName resolves canonical names and kernel aliases alike.
	for name, fd := range mc.ByName {
		if i, ok := index[fd.Name]; ok {
			p.ByName[name] = p.Funcs[i]
		}
	}
	// Callee edges: calls and goroutine spawns that resolve to a defined
	// function, read off each function's CFG nodes so that resolution
	// matches the analyses.
	var callees []int
	for i, f := range p.Funcs {
		if from != nil && from[i] >= 0 {
			f.Fingerprint = prev.Funcs[from[i]].Fingerprint
		}
		callees = callees[:0]
		r := cfg.Funcs[i]
		for _, n := range cfg.Nodes[r.Lo:r.Hi] {
			if (n.Kind != minic.NAction && n.Kind != minic.NSpawn) || n.Call == nil {
				continue
			}
			if def, ok := mc.Callee(n.Call); ok {
				callees = append(callees, index[def.Name])
			}
		}
		if len(callees) > 0 {
			slices.Sort(callees)
			f.Callees = slices.Clone(slices.Compact(callees))
		}
	}
	p.SCCs = condense(p.Funcs)
	for ci, members := range p.SCCs {
		for _, id := range members {
			p.Funcs[id].SCC = ci
		}
	}
	return p, nil
}

// FromProgram lowers a bare kernel program with empty metadata.
func FromProgram(mc *minic.Program) (*Program, error) { return New(mc, Meta{}) }

// Lower is FromProgram without fingerprints: it builds the CFG, the call
// graph and its SCCs, and leaves every Function's Fingerprint and
// Summary zero. It serves one-shot consumers that key no cache on the
// program.
func Lower(mc *minic.Program) (*Program, error) { return build(mc, Meta{}, nil) }

// FromMiniC parses mini-C source and lowers it.
func FromMiniC(src string) (*Program, error) {
	mc, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromProgram(mc)
}

// FileOf maps a (canonical or alias) function name to its source file,
// "" when unknown.
func (p *Program) FileOf(fn string) string {
	if f, ok := p.ByName[fn]; ok {
		return f.File
	}
	return ""
}

// Roots returns the default entry functions: canonical names of defined
// functions that no other defined function calls or spawns, sorted; if
// the call graph has no such root (everything is called), every function
// is an entry. A spawned callee counts as called: a worker started only
// via `go worker()` is not a root.
func (p *Program) Roots() []string {
	p.rootsOnce.Do(func() {
		called := make([]bool, len(p.Funcs))
		for _, f := range p.Funcs {
			for _, c := range f.Callees {
				called[c] = true
			}
		}
		for _, f := range p.Funcs {
			if !called[f.ID] {
				p.roots = append(p.roots, f.Name)
			}
		}
		if len(p.roots) == 0 {
			for _, f := range p.Funcs {
				p.roots = append(p.roots, f.Name)
			}
		}
		sort.Strings(p.roots)
	})
	return p.roots
}

// Reachable returns the IDs of the functions in the call-graph closure
// of entry (including entry itself), ascending. Unknown entries yield
// nil.
func (p *Program) Reachable(entry string) []int {
	f, ok := p.ByName[entry]
	if !ok {
		return nil
	}
	seen := map[int]bool{f.ID: true}
	queue := []int{f.ID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range p.Funcs[id].Callees {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ClosureNodes returns the CFG nodes of the functions in the call-graph
// closure of entry (see Reachable), ascending: the union of their node
// ranges, built without visiting any other node. Unknown entries yield
// nil.
func (p *Program) ClosureNodes(entry string) []int {
	fns := p.Reachable(entry)
	if fns == nil {
		return nil
	}
	n := 0
	for _, id := range fns {
		n += p.Graph.Funcs[id].Hi - p.Graph.Funcs[id].Lo
	}
	out := make([]int, 0, n)
	for _, id := range fns {
		for node := p.Graph.Funcs[id].Lo; node < p.Graph.Funcs[id].Hi; node++ {
			out = append(out, node)
		}
	}
	return out
}

// Dependents returns the IDs of every function that can reach id through
// the call graph (including id itself), ascending: the functions whose
// Summary an edit of id changes.
func (p *Program) Dependents(id int) []int {
	callers := make([][]int, len(p.Funcs))
	for _, f := range p.Funcs {
		for _, c := range f.Callees {
			callers[c] = append(callers[c], f.ID)
		}
	}
	seen := map[int]bool{id: true}
	queue := []int{id}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, c := range callers[at] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}
