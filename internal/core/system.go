package core

import (
	"fmt"
	"strconv"
	"strings"

	"rasc/internal/obs"
	"rasc/internal/terms"
)

// VarID identifies a set variable.
type VarID int32

// CNode identifies a constructor expression c(X1,…,Xn); constants are
// constructor expressions of arity zero. Constructor expressions are
// hash-consed by default (§8).
type CNode int32

// Options configures a System; the zero value enables all optimizations.
type Options struct {
	// NoCycleElim disables partial online cycle elimination (Fähndrich et
	// al., PLDI 1998): collapsing variables connected by cycles of
	// ε-annotated edges.
	NoCycleElim bool
	// NoProjMerge disables projection merging (Su et al., POPL 2000):
	// routing all projections c^-i(Y) ⊆ Z through one intermediate
	// variable per (Y, c, i).
	NoProjMerge bool
	// NoHashCons disables hash-consing of constructor expressions.
	NoHashCons bool
	// PruneDead discards facts and edges whose annotation is dead (not a
	// substring of L(M)): the §3.1 optimization, equivalent to solving
	// over T^{M^sub}. Off by default so that raw reachability queries see
	// every flow; analyses that only ask accepting queries should turn it
	// on.
	PruneDead bool
}

// Clash records a manifestly inconsistent constraint discovered during
// resolution: a flow from constructor Src to an incompatible constructor
// sink Dst (the "no solution" rule).
type Clash struct {
	Src, Dst CNode
	Annot    Annot
}

// stepKind tags the provenance of a derived fact for witness extraction.
type stepKind uint8

const (
	stepSeed   stepKind = iota // original lower-bound constraint
	stepEdge                   // propagated across a variable edge
	stepMerged                 // carried over by cycle elimination
)

// parent records how a reach fact was first derived.
type parent struct {
	fromVar VarID
	annot   Annot // annotation the source had at fromVar
	step    stepKind
}

// reachKey identifies a (source, annotation) fact at a variable. The
// bidirectional solver stores facts in per-var reachSets; this key form
// survives for the unidirectional solvers' fact tables.
type reachKey struct {
	cn CNode
	a  Annot
}

// edge is an annotated successor edge X ⊆^a Y.
type edge struct {
	to VarID
	a  Annot
}

// sinkRef is an upper bound X ⊆^a c(Y1,…,Yn).
type sinkRef struct {
	cn CNode
	a  Annot
}

// projRef is a projection constraint c^-i(X) ⊆^a Z attached at X.
type projRef struct {
	cons terms.ConsID
	idx  int
	to   VarID
	a    Annot
}

type varData struct {
	// Diagnostic identity, resolved lazily by VarName: an explicit name
	// (Var), a shared prefix index (Fresh; rendered as prefix#id on
	// demand), or neither (Anon; rendered by the NameFn hook).
	name   string
	prefix int32 // 1-based index into freshPrefixes, 0 = none

	// union-find parent; self when representative.
	uf VarID

	// A representative's out, sink and projection lists never hold an
	// entry twice, so each constraint fires once: a new entry is checked
	// by a scan of the list, and a collapsed variable's entries move to
	// its representative through the same check (union).
	out   []edge
	sinks []sinkRef
	projs []projRef
	reach reachSet

	// occurrences of this var as an argument of constructor expressions,
	// used by PN-reachability queries (wrap steps).
	argOf []argUse

	// projection-merge intermediates: key (cons, idx) -> intermediate var.
	projMerge map[projMergeKey]VarID
}

type projMergeKey struct {
	cons terms.ConsID
	idx  int
}

type argUse struct {
	cn  CNode
	idx int
}

type consData struct {
	cons terms.ConsID
	args []VarID
	// occur lists the (variable, annotation) pairs this expression has
	// reached, for PN queries; it mirrors reach entries.
	occur []varAnnot
}

type varAnnot struct {
	v VarID
	a Annot
}

// workItem is a newly added reach fact awaiting rule application.
type workItem struct {
	v  VarID
	cn CNode
	a  Annot
}

// rawKind enumerates the surface constraint forms for the unidirectional
// solvers, which run over the recorded constraints independently of the
// bidirectional engine's state.
type rawKind uint8

const (
	rawVarVar rawKind = iota
	rawLower          // cn ⊆^a y
	rawUpper          // x ⊆^a cn
	rawProj           // cons^-idx(x) ⊆^a z
)

type rawConstraint struct {
	kind rawKind
	x, y VarID
	cn   CNode
	cons terms.ConsID
	idx  int
	a    Annot
}

// System is a system of regularly annotated set constraints together with
// the bidirectional solver's state. Constraints may be added at any time
// (online solving); Solve drains the work queue and is idempotent.
type System struct {
	Alg Algebra
	Sig *terms.Signature

	opts Options

	vars      []varData
	varIndex  map[string]VarID
	cons      []consData
	consIndex map[consKey]CNode

	// Interned prefixes of Fresh variables and the fallback renderer for
	// anonymous ones; names are materialized only when VarName is asked.
	freshPrefixes []string
	prefixIndex   map[string]int32
	nameFn        func(VarID) string

	work      []workItem
	clashes   []Clash
	clashSeen map[Clash]struct{}

	raw []rawConstraint

	// Scratch for tryCollapse's bounded DFS, reused across edge
	// insertions so cycle detection allocates nothing in steady state.
	dfsMark  []uint32
	dfsPrev  []VarID
	dfsStack []VarID
	dfsEpoch uint32

	// stats
	nEdges, nReach, nCollapsed int

	// Optional observability hooks. Lives outside Options (which is
	// comparable and serialized into cache keys) and is nil unless a
	// caller opts in through SetMetrics; every hook site gates on one
	// nil test.
	metrics *obs.SolverMetrics
}

// consKey identifies a constructor expression for hash-consing without
// rendering it to a string: the constructor, the arity, the first three
// arguments inline, and (only for wider expressions) the remaining
// arguments encoded in rest. Interning an expression of arity ≤ 3 —
// every constructor the model checker and flow analyses emit — allocates
// nothing.
type consKey struct {
	c    terms.ConsID
	n    int32
	args [3]VarID
	rest string
}

func makeConsKey(c terms.ConsID, args []VarID) consKey {
	k := consKey{c: c, n: int32(len(args))}
	for i, a := range args {
		if i == 3 {
			var b strings.Builder
			for _, r := range args[3:] {
				b.WriteByte(',')
				b.WriteString(strconv.Itoa(int(r)))
			}
			k.rest = b.String()
			break
		}
		k.args[i] = a
	}
	return k
}

// NewSystem returns an empty constraint system over the given annotation
// algebra and constructor signature.
func NewSystem(alg Algebra, sig *terms.Signature, opts Options) *System {
	return &System{
		Alg:         alg,
		Sig:         sig,
		opts:        opts,
		varIndex:    make(map[string]VarID),
		consIndex:   make(map[consKey]CNode),
		prefixIndex: make(map[string]int32),
		clashSeen:   make(map[Clash]struct{}),
		work:        make([]workItem, 0, 64),
	}
}

// ReserveVars grows the variable table's capacity so that the next n
// variable creations do not reallocate it. Purely an allocation hint.
func (s *System) ReserveVars(n int) {
	if need := len(s.vars) + n; need > cap(s.vars) {
		grown := make([]varData, len(s.vars), need)
		copy(grown, s.vars)
		s.vars = grown
	}
}

// Var interns a set variable by name.
func (s *System) Var(name string) VarID {
	if v, ok := s.varIndex[name]; ok {
		return v
	}
	v := s.newVar()
	s.vars[v].name = name
	s.varIndex[name] = v
	return v
}

// Fresh creates an anonymous variable with a unique diagnostic name of
// the form prefix#id. The name is not materialized: only the interned
// prefix is stored, and VarName renders it on demand.
func (s *System) Fresh(prefix string) VarID {
	v := s.newVar()
	s.vars[v].prefix = s.internPrefix(prefix)
	return v
}

// Anon creates an unnamed variable, bypassing the name intern table
// entirely; VarName falls back to the NameFn hook, or "v<id>". This is
// the cheapest way to create variables in bulk (the model checker names
// its CFG-node variables through NameFn).
func (s *System) Anon() VarID { return s.newVar() }

// SetNameFn installs a renderer for variables created by Anon, used only
// when diagnostics ask for VarName.
func (s *System) SetNameFn(fn func(VarID) string) { s.nameFn = fn }

func (s *System) internPrefix(prefix string) int32 {
	if i, ok := s.prefixIndex[prefix]; ok {
		return i
	}
	s.freshPrefixes = append(s.freshPrefixes, prefix)
	i := int32(len(s.freshPrefixes))
	s.prefixIndex[prefix] = i
	return i
}

func (s *System) newVar() VarID {
	v := VarID(len(s.vars))
	s.vars = append(s.vars, varData{uf: v})
	return v
}

// NumVars returns the number of variables (including projection-merge
// intermediates).
func (s *System) NumVars() int { return len(s.vars) }

// NumConsNodes returns the number of interned constructor expressions;
// every valid CNode is below it.
func (s *System) NumConsNodes() int { return len(s.cons) }

// VarName returns the diagnostic name of v.
func (s *System) VarName(v VarID) string {
	d := &s.vars[v]
	switch {
	case d.name != "":
		return d.name
	case d.prefix != 0:
		return s.freshPrefixes[d.prefix-1] + "#" + strconv.Itoa(int(v))
	case s.nameFn != nil:
		if n := s.nameFn(v); n != "" {
			return n
		}
	}
	return "v" + strconv.Itoa(int(v))
}

// Rep returns the union-find representative of v; variables collapsed by
// cycle elimination share one representative.
func (s *System) Rep(v VarID) VarID { return s.find(v) }

// find returns the union-find representative of v, with path compression.
func (s *System) find(v VarID) VarID {
	root := v
	for s.vars[root].uf != root {
		root = s.vars[root].uf
	}
	for s.vars[v].uf != v {
		next := s.vars[v].uf
		s.vars[v].uf = root
		v = next
	}
	return root
}

// Cons interns the constructor expression c(args...). With hash-consing
// disabled every call creates a fresh node.
func (s *System) Cons(c terms.ConsID, args ...VarID) CNode {
	if got, want := len(args), s.Sig.Arity(c); got != want {
		panic(fmt.Sprintf("core: %s applied to %d args, want %d", s.Sig.Name(c), got, want))
	}
	var key consKey
	if !s.opts.NoHashCons {
		key = makeConsKey(c, args)
		if cn, ok := s.consIndex[key]; ok {
			return cn
		}
	}
	cn := CNode(len(s.cons))
	s.cons = append(s.cons, consData{cons: c, args: append([]VarID{}, args...)})
	// Occurrences live on the representative: an append at a variable
	// that already lost a union would be invisible to PN-reachability
	// (union only migrates occurrences recorded before the merge).
	for i, a := range args {
		s.vars[s.find(a)].argOf = append(s.vars[s.find(a)].argOf, argUse{cn, i})
	}
	if !s.opts.NoHashCons {
		s.consIndex[key] = cn
	}
	return cn
}

// Constant interns a constant (arity-0 constructor expression).
func (s *System) Constant(c terms.ConsID) CNode { return s.Cons(c) }

// ConsOf returns the constructor of cn.
func (s *System) ConsOf(cn CNode) terms.ConsID { return s.cons[cn].cons }

// ArgsOf returns the argument variables of cn (do not mutate).
func (s *System) ArgsOf(cn CNode) []VarID { return s.cons[cn].args }

// ConsString renders cn for diagnostics.
func (s *System) ConsString(cn CNode) string {
	d := s.cons[cn]
	if len(d.args) == 0 {
		return s.Sig.Name(d.cons)
	}
	var b strings.Builder
	b.WriteString(s.Sig.Name(d.cons))
	b.WriteByte('(')
	for i, a := range d.args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.VarName(a))
	}
	b.WriteByte(')')
	return b.String()
}

// Clashes returns the inconsistencies discovered so far, or nil when
// there are none, also in a fork whose destination held clashes before.
func (s *System) Clashes() []Clash {
	if len(s.clashes) == 0 {
		return nil
	}
	return s.clashes
}

// Consistent reports whether no clash has been discovered.
func (s *System) Consistent() bool { return len(s.clashes) == 0 }

// Stats reports solver counters: variables, constructor expressions,
// distinct propagated facts, distinct edges, and variables eliminated by
// cycle collapsing.
type Stats struct {
	Vars      int
	ConsNodes int
	Reach     int
	Edges     int
	Collapsed int
	Clashes   int
}

// Minus returns the component-wise difference s - base: the work done on
// top of a forked base system, for reporting that shared structure only
// once.
func (s Stats) Minus(base Stats) Stats {
	return Stats{
		Vars:      s.Vars - base.Vars,
		ConsNodes: s.ConsNodes - base.ConsNodes,
		Reach:     s.Reach - base.Reach,
		Edges:     s.Edges - base.Edges,
		Collapsed: s.Collapsed - base.Collapsed,
		Clashes:   s.Clashes - base.Clashes,
	}
}

// Stats returns current solver statistics.
func (s *System) Stats() Stats {
	return Stats{
		Vars:      len(s.vars),
		ConsNodes: len(s.cons),
		Reach:     s.nReach,
		Edges:     s.nEdges,
		Collapsed: s.nCollapsed,
		Clashes:   len(s.clashes),
	}
}

// SetMetrics attaches (or, with nil, detaches) a solver metrics bundle.
// Hook sites fire only while a bundle is attached; counts are deltas
// from the moment of attachment, not a replay of prior work. Forks
// inherit the receiver's bundle.
func (s *System) SetMetrics(m *obs.SolverMetrics) { s.metrics = m }

// FlushSizeMetrics samples per-representative reach-set sizes into the
// attached bundle's ReachSetSize histogram. Call once per solved
// system; a no-op without an attached bundle.
func (s *System) FlushSizeMetrics() {
	if s.metrics == nil {
		return
	}
	for v := range s.vars {
		if s.vars[v].uf != VarID(v) {
			continue
		}
		s.metrics.ReachSetSize.Observe(int64(len(s.vars[v].reach.facts)))
	}
}
