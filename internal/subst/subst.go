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
	"fmt"
	"sort"
	"strconv"
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

// key renders the canonical interning key of an environment, given the
// binding key of each of its entries.
func (e *Env) key(bkeys []string) []byte {
	var b []byte
	for i, en := range e.Entries {
		b = append(b, bkeys[i]...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(en.F), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	return strconv.AppendInt(b, int64(e.Residual), 10)
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
type Table struct {
	Mon   *monoid.Monoid
	envs  []*Env
	index map[string]ID
	memo  map[[2]ID]ID
	ident ID
}

// NewTable returns an empty table over mon. ID 0 is the identity
// environment [ | f_ε].
func NewTable(mon *monoid.Monoid) *Table {
	t := &Table{
		Mon:   mon,
		index: make(map[string]ID),
		memo:  make(map[[2]ID]ID),
	}
	t.ident = t.intern(&Env{Residual: mon.Identity()})
	return t
}

func (t *Table) intern(e *Env) ID {
	// Canonicalize entry order by binding key, each computed once.
	bkeys := make([]string, len(e.Entries))
	for i, en := range e.Entries {
		bkeys[i] = bindingsKey(en.Bindings)
	}
	sort.Sort(byBindingsKey{bkeys, e.Entries})
	k := e.key(bkeys)
	if id, ok := t.index[string(k)]; ok {
		return id
	}
	id := ID(len(t.envs))
	t.envs = append(t.envs, e)
	t.index[string(k)] = id
	return id
}

// byBindingsKey sorts entries by their precomputed binding keys.
type byBindingsKey struct {
	keys    []string
	entries []Entry
}

func (b byBindingsKey) Len() int           { return len(b.keys) }
func (b byBindingsKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byBindingsKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.entries[i], b.entries[j] = b.entries[j], b.entries[i]
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
	e := &Env{
		Entries:  []Entry{{Bindings: []Binding{{param, label}}, F: f}},
		Residual: t.Mon.Identity(),
	}
	return t.intern(e)
}

// InstantiateMulti interns an environment whose single entry binds several
// parameters at once (§6.4.2).
func (t *Table) InstantiateMulti(bindings []Binding, f monoid.FuncID) ID {
	bs := append([]Binding{}, bindings...)
	sortBindings(bs)
	e := &Env{
		Entries:  []Entry{{Bindings: bs, F: f}},
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
	// non-conflicting pairs.
	seen := map[string][]Binding{}
	add := func(bs []Binding) {
		k := bindingsKey(bs)
		if _, ok := seen[k]; !ok {
			seen[k] = bs
		}
	}
	for _, en := range ea.Entries {
		add(en.Bindings)
	}
	for _, en := range eb.Entries {
		add(en.Bindings)
	}
	for _, x := range ea.Entries {
		for _, y := range eb.Entries {
			if !conflicts(x.Bindings, y.Bindings) {
				add(mergeBindings(x.Bindings, y.Bindings))
			}
		}
	}
	out := &Env{Residual: t.Mon.Then(ea.Residual, eb.Residual)}
	for _, bs := range seen {
		f := t.Mon.Then(ea.Lookup(bs), eb.Lookup(bs))
		out.Entries = append(out.Entries, Entry{Bindings: bs, F: f})
	}
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
	return len(t.AcceptingEntries(id)) > 0
}
