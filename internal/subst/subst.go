// Package subst implements the substitution environments of §6.4 of the
// paper, which give regularly annotated set constraints a limited ability
// to correlate data ("parametric annotations"). A substitution environment
//
//	[(x:fd1) ↦ f; (x:fd2) ↦ g | r]
//
// lazily tracks one copy of the property automaton per instantiation of
// the parameter x, plus a residual function r recording the non-parametric
// transitions that every future instantiation must incorporate.
// Composition is pointwise on compatible entries (§6.4.2); environments
// gracefully degrade to plain representative functions when no parameters
// are used (an empty environment [ | r] behaves exactly like r).
package subst

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rasc/internal/monoid"
)

// Binding instantiates one parameter variable with a program label, e.g.
// (x : fd1).
type Binding struct {
	Param string
	Label string
}

func (b Binding) String() string { return b.Param + ":" + b.Label }

// Entry maps a set of bindings (its domain element) to a representative
// function. Bindings are kept sorted and duplicate-free.
type Entry struct {
	Bindings []Binding
	F        monoid.FuncID
	// set is the table's interned ID of Bindings.
	set setID
}

// Env is a substitution environment: a set of entries plus a residual
// representative function. The zero value is not useful; construct
// environments through a Table.
type Env struct {
	Entries  []Entry
	Residual monoid.FuncID
}

// conflicts reports whether two binding sets assign different labels to a
// common parameter.
func conflicts(a, b []Binding) bool {
	for _, ba := range a {
		for _, bb := range b {
			if ba.Param == bb.Param && ba.Label != bb.Label {
				return true
			}
		}
	}
	return false
}

// contains reports whether set contains b.
func contains(set []Binding, b Binding) bool {
	for _, x := range set {
		if x == b {
			return true
		}
	}
	return false
}

// Compatible implements the paper's i ≼ j: all common parameter/label
// pairs agree and i has at least as many bindings as j. By convention
// every entry is compatible with the residual.
func Compatible(i, j []Binding) bool {
	return !conflicts(i, j) && len(i) >= len(j)
}

// mergeBindings returns the sorted union of two non-conflicting binding
// sets.
func mergeBindings(a, b []Binding) []Binding {
	out := append([]Binding{}, a...)
	for _, bb := range b {
		if !contains(out, bb) {
			out = append(out, bb)
		}
	}
	sortBindings(out)
	return out
}

func sortBindings(bs []Binding) {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].Param != bs[j].Param {
			return bs[i].Param < bs[j].Param
		}
		return bs[i].Label < bs[j].Label
	})
}

func bindingsKey(bs []Binding) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = b.Param + "\x01" + b.Label
	}
	return strings.Join(parts, "\x02")
}

// Lookup returns φ(i): the function of the largest entry that i is
// compatible with, or the residual if there is none. Ties on entry size
// are broken by canonical binding order, which the paper's footnote
// argues cannot change the answer for well-formed environments.
func (e *Env) Lookup(i []Binding) monoid.FuncID {
	best := -1
	for idx, entry := range e.Entries {
		if !Compatible(i, entry.Bindings) {
			continue
		}
		if best == -1 || len(entry.Bindings) > len(e.Entries[best].Bindings) {
			best = idx
		}
	}
	if best == -1 {
		return e.Residual
	}
	return e.Entries[best].F
}

// String renders the environment in the paper's notation.
func (e *Env) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, en := range e.Entries {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString("(")
		for j, bd := range en.Bindings {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(bd.String())
		}
		fmt.Fprintf(&b, ") ↦ f%d", en.F)
	}
	fmt.Fprintf(&b, " | f%d]", e.Residual)
	return b.String()
}

// ID is an interned environment identifier within a Table.
type ID int32

// String renders an interned environment with the state each entry has
// reached, e.g. "[(x:sem1) ↦ f3@S·c=2 | f0@S·c=0]". Env.String shows only
// function IDs; the table can resolve them against its monoid, which for
// counter-expanded machines surfaces the counter valuation in provenance
// output.
func (t *Table) String(id ID) string {
	e := t.envs[id]
	var b strings.Builder
	b.WriteString("[")
	for i, en := range e.Entries {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString("(")
		for j, bd := range en.Bindings {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(bd.String())
		}
		fmt.Fprintf(&b, ") ↦ f%d@%s", en.F, t.Mon.StateName(en.F))
	}
	fmt.Fprintf(&b, " | f%d@%s]", e.Residual, t.Mon.StateName(e.Residual))
	return b.String()
}

// Table interns substitution environments over a fixed monoid and
// memoizes their composition, so that the constraint solver can use
// environment IDs as annotations exactly like plain FuncIDs.
//
// Binding sets are interned too: each carries its canonical key and its
// bindings as (param, label) ID pairs, and every Entry records its set's
// ID. Composition then dedupes, merges and compares binding sets by
// integer, and environments intern under a binary key of (set ID,
// function) pairs. Entries stay ordered by canonical binding key, so
// environment IDs, Lookup tie-breaks and renderings do not depend on
// the set IDs a table happened to hand out.
type Table struct {
	Mon   *monoid.Monoid
	envs  []*Env
	index map[string]ID // binary environment key -> ID
	memo  map[[2]ID]ID
	ident ID

	sets   []bindingSet
	setIdx map[string]setID // canonical binding key -> set
	strs   map[string]int32 // parameter and label names -> IDs
	merges map[[2]setID]setID

	// Scratch state of Then and intern. A set is a candidate of the
	// current Then when its mark equals epoch.
	mark   []uint32
	epoch  uint32
	cands  []setID
	keyBuf []byte
}

// setID is an interned binding set within a Table.
type setID int32

// bindingSet is one interned binding set: its bindings in canonical
// order, their canonical key, and the same bindings as ID pairs.
type bindingSet struct {
	bindings []Binding
	key      string
	pairs    []idPair
}

// idPair is a Binding with its parameter and label interned.
type idPair struct{ param, label int32 }

// NewTable returns an empty table over mon. ID 0 is the identity
// environment [ | f_ε].
func NewTable(mon *monoid.Monoid) *Table {
	t := &Table{
		Mon:    mon,
		index:  make(map[string]ID),
		memo:   make(map[[2]ID]ID),
		setIdx: make(map[string]setID),
		strs:   make(map[string]int32),
		merges: make(map[[2]setID]setID),
	}
	t.ident = t.intern(&Env{Residual: mon.Identity()})
	return t
}

// str interns a parameter or label name.
func (t *Table) str(s string) int32 {
	id, ok := t.strs[s]
	if !ok {
		id = int32(len(t.strs))
		t.strs[s] = id
	}
	return id
}

// setOf interns a binding set already in canonical order.
func (t *Table) setOf(bs []Binding) setID {
	key := bindingsKey(bs)
	if s, ok := t.setIdx[key]; ok {
		return s
	}
	pairs := make([]idPair, len(bs))
	for i, b := range bs {
		pairs[i] = idPair{t.str(b.Param), t.str(b.Label)}
	}
	s := setID(len(t.sets))
	t.sets = append(t.sets, bindingSet{bindings: bs, key: key, pairs: pairs})
	t.setIdx[key] = s
	t.mark = append(t.mark, 0)
	return s
}

// conflictIDs is conflicts over interned binding sets.
func conflictIDs(a, b []idPair) bool {
	for _, pa := range a {
		for _, pb := range b {
			if pa.param == pb.param && pa.label != pb.label {
				return true
			}
		}
	}
	return false
}

// merge returns the union of two non-conflicting binding sets, interned
// and memoized.
func (t *Table) merge(a, b setID) setID {
	if a == b {
		return a
	}
	key := [2]setID{a, b}
	if m, ok := t.merges[key]; ok {
		return m
	}
	m := t.setOf(mergeBindings(t.sets[a].bindings, t.sets[b].bindings))
	t.merges[key] = m
	return m
}

// lookup is Env.Lookup for an interned binding set. No compatible entry
// is larger than s itself, so the first one of s's size ends the scan.
func (t *Table) lookup(e *Env, s setID) monoid.FuncID {
	q := t.sets[s].pairs
	best, bestLen := -1, 0
	for idx := range e.Entries {
		p := t.sets[e.Entries[idx].set].pairs
		if len(q) < len(p) || conflictIDs(q, p) {
			continue
		}
		if best == -1 || len(p) > bestLen {
			best, bestLen = idx, len(p)
			if bestLen == len(q) {
				break
			}
		}
	}
	if best == -1 {
		return e.Residual
	}
	return e.Entries[best].F
}

// intern canonicalizes e's entry order by binding key and returns the
// ID of the equal environment already interned, or interns e.
func (t *Table) intern(e *Env) ID {
	slices.SortFunc(e.Entries, func(x, y Entry) int {
		return strings.Compare(t.sets[x.set].key, t.sets[y.set].key)
	})
	k := t.keyBuf[:0]
	for _, en := range e.Entries {
		k = binary.LittleEndian.AppendUint32(k, uint32(en.set))
		k = binary.LittleEndian.AppendUint32(k, uint32(en.F))
	}
	k = binary.LittleEndian.AppendUint32(k, uint32(e.Residual))
	t.keyBuf = k
	if id, ok := t.index[string(k)]; ok {
		return id
	}
	id := ID(len(t.envs))
	t.envs = append(t.envs, e)
	t.index[string(k)] = id
	return id
}

// Identity returns the identity environment's ID.
func (t *Table) Identity() ID { return t.ident }

// Env returns the environment for id (do not mutate).
func (t *Table) Env(id ID) *Env { return t.envs[id] }

// Size returns the number of interned environments.
func (t *Table) Size() int { return len(t.envs) }

// FromFunc interns the empty environment with residual f; non-parametric
// annotations degrade to this form.
func (t *Table) FromFunc(f monoid.FuncID) ID {
	return t.intern(&Env{Residual: f})
}

// Instantiate interns the environment for a parametric event: parameter
// param instantiated with label undergoes f while every other
// instantiation (and the residual) is unchanged, e.g.
// open(fd1) becomes [(x:fd1) ↦ f_open | f_ε].
func (t *Table) Instantiate(param, label string, f monoid.FuncID) ID {
	return t.single([]Binding{{param, label}}, f)
}

// InstantiateMulti interns an environment whose single entry binds several
// parameters at once (§6.4.2).
func (t *Table) InstantiateMulti(bindings []Binding, f monoid.FuncID) ID {
	bs := append([]Binding{}, bindings...)
	sortBindings(bs)
	return t.single(bs, f)
}

// single interns [(bs) ↦ f | f_ε] for canonically ordered bs.
func (t *Table) single(bs []Binding, f monoid.FuncID) ID {
	s := t.setOf(bs)
	e := &Env{
		Entries:  []Entry{{Bindings: t.sets[s].bindings, F: f, set: s}},
		Residual: t.Mon.Identity(),
	}
	return t.intern(e)
}

// Then composes two environments in time order: the result describes
// "first a, then b" (the paper's φ_b ∘ φ_a). Compatible entries are
// merged by expanding to the union of their parameter/label pairs; each
// merged domain element d gets Then(a(d), b(d)); the residuals compose.
func (t *Table) Then(a, b ID) ID {
	if a == t.ident {
		return b
	}
	if b == t.ident {
		return a
	}
	key := [2]ID{a, b}
	if r, ok := t.memo[key]; ok {
		return r
	}
	ea, eb := t.envs[a], t.envs[b]
	// Candidate domain: entries of both sides plus unions of
	// non-conflicting pairs, each set once. Every epoch ends in a new
	// memo entry, so memory runs out long before epoch could wrap.
	t.epoch++
	cands := t.cands[:0]
	add := func(s setID) {
		if t.mark[s] != t.epoch {
			t.mark[s] = t.epoch
			cands = append(cands, s)
		}
	}
	for _, en := range ea.Entries {
		add(en.set)
	}
	for _, en := range eb.Entries {
		add(en.set)
	}
	for _, x := range ea.Entries {
		px := t.sets[x.set].pairs
		for _, y := range eb.Entries {
			if !conflictIDs(px, t.sets[y.set].pairs) {
				add(t.merge(x.set, y.set))
			}
		}
	}
	out := &Env{
		Entries:  make([]Entry, len(cands)),
		Residual: t.Mon.Then(ea.Residual, eb.Residual),
	}
	for i, s := range cands {
		out.Entries[i] = Entry{
			Bindings: t.sets[s].bindings,
			F:        t.Mon.Then(t.lookup(ea, s), t.lookup(eb, s)),
			set:      s,
		}
	}
	t.cands = cands
	id := t.intern(out)
	t.memo[key] = id
	return id
}

// Violation describes one accepting instantiation of an environment.
type Violation struct {
	Bindings []Binding // nil for the residual ("any fresh instance")
	F        monoid.FuncID
}

// AcceptingEntries returns the instantiations whose function is accepting
// (reaches an accept state from the start state): these are the property
// violations carried by the environment.
func (t *Table) AcceptingEntries(id ID) []Violation {
	e := t.envs[id]
	var out []Violation
	for _, en := range e.Entries {
		if t.Mon.Accepting(en.F) {
			out = append(out, Violation{Bindings: en.Bindings, F: en.F})
		}
	}
	if t.Mon.Accepting(e.Residual) {
		out = append(out, Violation{F: e.Residual})
	}
	return out
}

// Accepting reports whether any instantiation of id is accepting.
func (t *Table) Accepting(id ID) bool {
	e := t.envs[id]
	if t.Mon.Accepting(e.Residual) {
		return true
	}
	for _, en := range e.Entries {
		if t.Mon.Accepting(en.F) {
			return true
		}
	}
	return false
}
