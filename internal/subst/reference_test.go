package subst

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rasc/internal/dfa"
	"rasc/internal/monoid"
)

// refTable is the string-keyed substitution table the package shipped
// before binding sets were interned, kept verbatim (modulo the ref
// prefix) as the oracle for TestTableMatchesReference: the interned
// table must hand out the same IDs, in the same order, for the same
// environments, with the same entry order and rendering.
type refTable struct {
	Mon   *monoid.Monoid
	envs  []*refEnv
	index map[string]ID
	memo  map[[2]ID]ID
	ident ID
}

type refEntry struct {
	Bindings []Binding
	F        monoid.FuncID
}

type refEnv struct {
	Entries  []refEntry
	Residual monoid.FuncID
}

func refConflicts(a, b []Binding) bool {
	for _, ba := range a {
		for _, bb := range b {
			if ba.Param == bb.Param && ba.Label != bb.Label {
				return true
			}
		}
	}
	return false
}

func refContains(set []Binding, b Binding) bool {
	for _, x := range set {
		if x == b {
			return true
		}
	}
	return false
}

func refCompatible(i, j []Binding) bool {
	return !refConflicts(i, j) && len(i) >= len(j)
}

func refMergeBindings(a, b []Binding) []Binding {
	out := append([]Binding{}, a...)
	for _, bb := range b {
		if !refContains(out, bb) {
			out = append(out, bb)
		}
	}
	refSortBindings(out)
	return out
}

func refSortBindings(bs []Binding) {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].Param != bs[j].Param {
			return bs[i].Param < bs[j].Param
		}
		return bs[i].Label < bs[j].Label
	})
}

func refBindingsKey(bs []Binding) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = b.Param + "\x01" + b.Label
	}
	return strings.Join(parts, "\x02")
}

func (e *refEnv) Lookup(i []Binding) monoid.FuncID {
	best := -1
	for idx, entry := range e.Entries {
		if !refCompatible(i, entry.Bindings) {
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

func (e *refEnv) key(bkeys []string) []byte {
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

func (e *refEnv) String() string {
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

func (t *refTable) String(id ID) string {
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

func newRefTable(mon *monoid.Monoid) *refTable {
	t := &refTable{
		Mon:   mon,
		index: make(map[string]ID),
		memo:  make(map[[2]ID]ID),
	}
	t.ident = t.intern(&refEnv{Residual: mon.Identity()})
	return t
}

func (t *refTable) intern(e *refEnv) ID {
	bkeys := make([]string, len(e.Entries))
	for i, en := range e.Entries {
		bkeys[i] = refBindingsKey(en.Bindings)
	}
	sort.Sort(refByBindingsKey{bkeys, e.Entries})
	k := e.key(bkeys)
	if id, ok := t.index[string(k)]; ok {
		return id
	}
	id := ID(len(t.envs))
	t.envs = append(t.envs, e)
	t.index[string(k)] = id
	return id
}

type refByBindingsKey struct {
	keys    []string
	entries []refEntry
}

func (b refByBindingsKey) Len() int           { return len(b.keys) }
func (b refByBindingsKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b refByBindingsKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.entries[i], b.entries[j] = b.entries[j], b.entries[i]
}

func (t *refTable) Identity() ID { return t.ident }

func (t *refTable) Env(id ID) *refEnv { return t.envs[id] }

func (t *refTable) Size() int { return len(t.envs) }

func (t *refTable) FromFunc(f monoid.FuncID) ID {
	return t.intern(&refEnv{Residual: f})
}

func (t *refTable) Instantiate(param, label string, f monoid.FuncID) ID {
	e := &refEnv{
		Entries:  []refEntry{{Bindings: []Binding{{param, label}}, F: f}},
		Residual: t.Mon.Identity(),
	}
	return t.intern(e)
}

func (t *refTable) InstantiateMulti(bindings []Binding, f monoid.FuncID) ID {
	bs := append([]Binding{}, bindings...)
	refSortBindings(bs)
	e := &refEnv{
		Entries:  []refEntry{{Bindings: bs, F: f}},
		Residual: t.Mon.Identity(),
	}
	return t.intern(e)
}

func (t *refTable) Then(a, b ID) ID {
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
	seen := map[string][]Binding{}
	add := func(bs []Binding) {
		k := refBindingsKey(bs)
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
			if !refConflicts(x.Bindings, y.Bindings) {
				add(refMergeBindings(x.Bindings, y.Bindings))
			}
		}
	}
	out := &refEnv{Residual: t.Mon.Then(ea.Residual, eb.Residual)}
	for _, bs := range seen {
		f := t.Mon.Then(ea.Lookup(bs), eb.Lookup(bs))
		out.Entries = append(out.Entries, refEntry{Bindings: bs, F: f})
	}
	id := t.intern(out)
	t.memo[key] = id
	return id
}

func (t *refTable) AcceptingEntries(id ID) []Violation {
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

func (t *refTable) Accepting(id ID) bool {
	return len(t.AcceptingEntries(id)) > 0
}

// refPair drives an interned table and the reference table in
// lockstep, failing the test on the first call whose IDs differ.
type refPair struct {
	t   *testing.T
	tab *Table
	ref *refTable
}

func (p refPair) same(op string, got, want ID) ID {
	p.t.Helper()
	if got != want {
		p.t.Fatalf("%s: interned table gives env %d, reference %d", op, got, want)
	}
	return got
}

// eventSpec draws one parametric event: a function symbol and the
// bindings it instantiates (none for a non-parametric event).
type eventSpec func(r *rand.Rand) ([]Binding, monoid.FuncID)

func (p refPair) event(r *rand.Rand, draw eventSpec) ID {
	p.t.Helper()
	if r.Intn(12) == 0 {
		return p.same("Identity", p.tab.Identity(), p.ref.Identity())
	}
	bs, f := draw(r)
	switch len(bs) {
	case 0:
		return p.same("FromFunc", p.tab.FromFunc(f), p.ref.FromFunc(f))
	case 1:
		return p.same("Instantiate", p.tab.Instantiate(bs[0].Param, bs[0].Label, f),
			p.ref.Instantiate(bs[0].Param, bs[0].Label, f))
	default:
		return p.same("InstantiateMulti", p.tab.InstantiateMulti(bs, f), p.ref.InstantiateMulti(bs, f))
	}
}

// compose folds ids[lo:hi] into one environment under a random
// bracketing, composing on both tables.
func (p refPair) compose(r *rand.Rand, ids []ID, lo, hi int) ID {
	p.t.Helper()
	if hi-lo == 1 {
		return ids[lo]
	}
	mid := lo + 1 + r.Intn(hi-lo-1)
	a := p.compose(r, ids, lo, mid)
	b := p.compose(r, ids, mid, hi)
	return p.same("Then", p.tab.Then(a, b), p.ref.Then(a, b))
}

// agree compares every interned environment of the two tables: entries,
// residual, Lookup answers on the given queries, accepting entries and
// both renderings.
func (p refPair) agree(queries [][]Binding) {
	p.t.Helper()
	if p.tab.Size() != p.ref.Size() {
		p.t.Fatalf("interned table holds %d envs, reference %d", p.tab.Size(), p.ref.Size())
	}
	for i := 0; i < p.ref.Size(); i++ {
		id := ID(i)
		got, want := p.tab.Env(id), p.ref.Env(id)
		if got.Residual != want.Residual || len(got.Entries) != len(want.Entries) {
			p.t.Fatalf("env %d: %s, reference %s", id, got, want)
		}
		for j, en := range got.Entries {
			if !reflect.DeepEqual(en.Bindings, want.Entries[j].Bindings) || en.F != want.Entries[j].F {
				p.t.Fatalf("env %d entry %d: %v ↦ f%d, reference %v ↦ f%d",
					id, j, en.Bindings, en.F, want.Entries[j].Bindings, want.Entries[j].F)
			}
		}
		for _, q := range queries {
			if g, w := got.Lookup(q), want.Lookup(q); g != w {
				p.t.Fatalf("env %d: Lookup(%v) = f%d, reference f%d", id, q, g, w)
			}
		}
		if g, w := p.tab.AcceptingEntries(id), p.ref.AcceptingEntries(id); !reflect.DeepEqual(g, w) {
			p.t.Fatalf("env %d: accepting entries %v, reference %v", id, g, w)
		}
		if g, w := p.tab.Accepting(id), p.ref.Accepting(id); g != w {
			p.t.Fatalf("env %d: Accepting = %v, reference %v", id, g, w)
		}
		if g, w := p.tab.String(id), p.ref.String(id); g != w {
			p.t.Fatalf("env %d: String = %q, reference %q", id, g, w)
		}
		if g, w := got.String(), want.String(); g != w {
			p.t.Fatalf("env %d: Env.String = %q, reference %q", id, g, w)
		}
	}
}

// permMonoid is the monoid of a three-state machine whose two symbols
// permute the states (a rotation and a swap): every composition is a
// permutation, so no symbol absorbs what came before it and a wrong
// Lookup answer survives into the composed environment. The file
// property's open and close, by contrast, overwrite the state.
func permMonoid(t *testing.T) *monoid.Monoid {
	t.Helper()
	alpha := dfa.NewAlphabet("rot", "swap")
	d := dfa.NewDFA(alpha, 3, 0)
	rot, _ := alpha.Lookup("rot")
	swap, _ := alpha.Lookup("swap")
	for s, to := range []dfa.State{1, 2, 0} {
		d.SetTransition(dfa.State(s), rot, to)
	}
	for s, to := range []dfa.State{1, 0, 2} {
		d.SetTransition(dfa.State(s), swap, to)
	}
	d.SetAccept(2)
	mon, err := monoid.Build(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// The interned table is a drop-in for the string-keyed one: random
// parametric event streams, composed under random bracketings, give
// equal environment IDs at every step and equal environments, lookups,
// accepting entries and renderings throughout. Covers the
// single-parameter file property over several labels and the
// two-parameter spec of TestQuickMultiParamAssociativity (plus events
// binding y alone), each over the file property's monoid and over
// permMonoid.
func TestTableMatchesReference(t *testing.T) {
	xs := []string{"a", "b", "c"}
	ys := []string{"p", "q"}
	fds := []string{"fd1", "fd2", "fd3", "fd4", "fd5", "fd6", "fd7", "fd8"}
	type symbols func(r *rand.Rand) monoid.FuncID
	shapes := []struct {
		name    string
		draw    func(sym symbols) eventSpec
		queries [][]Binding
	}{
		{
			name: "single-param",
			draw: func(sym symbols) eventSpec {
				return func(r *rand.Rand) ([]Binding, monoid.FuncID) {
					if r.Intn(6) == 0 {
						return nil, sym(r)
					}
					return []Binding{{"x", fds[r.Intn(len(fds))]}}, sym(r)
				}
			},
			queries: func() [][]Binding {
				qs := [][]Binding{nil, {{"x", "fresh"}}}
				for _, l := range fds {
					qs = append(qs, []Binding{{"x", l}})
				}
				return qs
			}(),
		},
		{
			name: "two-param",
			draw: func(sym symbols) eventSpec {
				return func(r *rand.Rand) ([]Binding, monoid.FuncID) {
					x := Binding{"x", xs[r.Intn(len(xs))]}
					y := Binding{"y", ys[r.Intn(len(ys))]}
					switch r.Intn(5) {
					case 0:
						return nil, sym(r)
					case 1:
						return []Binding{x}, sym(r)
					case 2:
						// A lone y: compatible with every x entry, so
						// lookups meet ties broken by entry order.
						return []Binding{y}, sym(r)
					case 3:
						return []Binding{y, x}, sym(r) // unsorted on purpose
					default:
						return []Binding{x, y}, sym(r)
					}
				}
			},
			queries: func() [][]Binding {
				qs := [][]Binding{nil, {{"x", "z"}}, {{"y", "z"}}}
				for _, x := range xs {
					qs = append(qs, []Binding{{"x", x}})
					for _, y := range ys {
						qs = append(qs, []Binding{{"x", x}, {"y", y}})
					}
				}
				for _, y := range ys {
					qs = append(qs, []Binding{{"y", y}})
				}
				return qs
			}(),
		},
	}
	machines := []struct {
		name string
		mon  *monoid.Monoid
		syms [2]string
	}{
		{"file", fileProperty(t).Mon, [2]string{"open", "close"}},
		{"perm", permMonoid(t), [2]string{"rot", "swap"}},
	}
	for _, m := range machines {
		var fs [2]monoid.FuncID
		for i, name := range m.syms {
			fs[i], _ = m.mon.SymbolFuncByName(name)
		}
		sym := func(r *rand.Rand) monoid.FuncID { return fs[r.Intn(2)] }
		for _, sh := range shapes {
			t.Run(m.name+"/"+sh.name, func(t *testing.T) {
				draw := sh.draw(sym)
				for seed := int64(1); seed <= 60; seed++ {
					r := rand.New(rand.NewSource(seed))
					p := refPair{t: t, tab: NewTable(m.mon), ref: newRefTable(m.mon)}
					// Several streams per table, so later streams hit the
					// memo and intern against environments already present.
					for s := 0; s < 4; s++ {
						ids := make([]ID, 2+r.Intn(14))
						for i := range ids {
							ids[i] = p.event(r, draw)
						}
						p.compose(r, ids, 0, len(ids))
					}
					p.agree(sh.queries)
				}
			})
		}
	}
}
