package analysis

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"rasc/internal/bitvector"
	"rasc/internal/gosrc"
	"rasc/internal/minic"
)

// lockSets are the holds ("mu/w", "mu/r") held on some path (may) and on
// every path (must) to each lock event and access node, by node.
type lockSets struct {
	may, must map[int][]string
}

// holdOf is the hold a lock event acts on.
func holdOf(n *minic.Node) string {
	if n.Conc == minic.ConcRLock || n.Conc == minic.ConcRUnlock {
		return n.ConcArg + "/r"
	}
	return n.ConcArg + "/w"
}

// holdSet sorts holds and drops duplicates, in place.
func holdSet(holds []string) []string {
	slices.Sort(holds)
	return slices.Compact(holds)
}

// oracleLockSets walks every (node, return-site stack, held holds) state
// of goroutine g, from its root's entry with an empty stack and nothing
// held, within the root's closure, and collects g's lock sets. It uses
// no solver: each call pushes its node, each exit pops one and continues
// at that call's successors, and a goroutine's last exit ends it. It is
// exact on programs that do not recurse, and reports false when the walk
// outgrows them.
func oracleLockSets(m *concModel, g *goroutine) (lockSets, bool) {
	type state struct {
		node        int
		stack, held string // comma-separated call nodes, sorted holds
	}
	in := m.closure(g.Root).funcs
	out := lockSets{may: map[int][]string{}, must: map[int][]string{}}
	start := state{node: m.cfg.Entry[g.Root]}
	seen := map[state]bool{start: true}
	for queue := []state{start}; len(queue) > 0; queue = queue[1:] {
		if len(seen) > 100000 {
			return out, false
		}
		st := queue[0]
		n := m.cfg.Nodes[st.node]
		var held []string
		if st.held != "" {
			held = strings.Split(st.held, ",")
		}
		if lockEvent(n.Conc) || n.Kind == minic.NAccess {
			if _, ok := out.may[n.ID]; !ok {
				out.must[n.ID] = held
			}
			out.may[n.ID] = holdSet(append(slices.Clone(out.may[n.ID]), held...))
			out.must[n.ID] = slices.DeleteFunc(slices.Clone(out.must[n.ID]), func(h string) bool { return !slices.Contains(held, h) })
		}
		switch n.Conc {
		case minic.ConcLock, minic.ConcRLock:
			held = holdSet(append(slices.Clone(held), holdOf(n)))
		case minic.ConcUnlock, minic.ConcRUnlock:
			held = slices.DeleteFunc(slices.Clone(held), func(h string) bool { return h == holdOf(n) })
		}
		next := func(node int, stack string) {
			s := state{node, stack, strings.Join(held, ",")}
			if bitvector.Index(in, node) >= 0 && !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
		switch c := m.callee(n); {
		case c != "":
			next(m.cfg.Entry[c], strconv.Itoa(n.ID)+","+st.stack)
		case n.Kind == minic.NExit:
			if st.stack == "" {
				continue // the goroutine's root returns
			}
			call, rest, _ := strings.Cut(st.stack, ",")
			id, _ := strconv.Atoi(call)
			for _, s := range m.cfg.Nodes[id].Succs {
				next(s, rest)
			}
		default:
			for _, s := range n.Succs {
				next(s, st.stack)
			}
		}
	}
	return out, true
}

// engineLockSets reads g's lock sets off its root's lock facts, at the
// lock event and access nodes of g's reach that a valid path reaches.
func engineLockSets(m *concModel, g *goroutine) lockSets {
	l := m.lockFacts(g.Root)
	out := lockSets{may: map[int][]string{}, must: map[int][]string{}}
	holds := 2 * len(l.names)
	for _, id := range g.nodes(func(int) bool { return true }) {
		n := m.cfg.Nodes[id]
		if !(lockEvent(n.Conc) || n.Kind == minic.NAccess) || !l.sol.Reached(id) {
			continue
		}
		out.may[id], out.must[id] = []string{}, []string{}
		for h := range holds {
			hold := l.names[h/2] + []string{"/w", "/r"}[h%2]
			if l.sol.Has(id, h) {
				out.may[id] = append(out.may[id], hold)
			}
			if !l.sol.Has(id, holds+h) {
				out.must[id] = append(out.must[id], hold)
			}
		}
		slices.Sort(out.may[id])
		slices.Sort(out.must[id])
	}
	return out
}

// lockWrappersSrc takes and releases mu through wrappers, and calls
// touch, whose accesses and read lock sit in a callee, with three
// different sets of locks held.
const lockWrappersSrc = `package p

import "sync"

var mu sync.Mutex
var rw sync.RWMutex
var x, y int

func lock()   { mu.Lock() }
func unlock() { mu.Unlock() }

func touch() {
	x = 1
	rw.RLock()
	y = x
	rw.RUnlock()
}

func Main() {
	go worker()
	touch()
	lock()
	touch()
	unlock()
	if x > 0 {
		lock()
	}
	y = 2
	unlock()
}

func worker() {
	rw.Lock()
	lock()
	touch()
	unlock()
	rw.Unlock()
}
`

// The lock facts equal an explicit walk of every valid path, on every
// program of the concurrency tests: for every goroutine of every entry,
// the same lock event and access nodes are reached, with the same
// may-held and must-held sets.
func TestLockFactsMatchPathOracle(t *testing.T) {
	programs := map[string]string{
		"guarded":          raceGuardedSrc,
		"rwlock":           raceRWLockSrc,
		"rwlock-racy":      raceRWLockRacySrc,
		"spawn-in-loop":    raceSpawnInLoopSrc,
		"lockorder":        lockOrderSrc,
		"lockorder-ok":     lockOrderConsistentSrc,
		"chanclose":        chanCloseSrc,
		"rwlock-checker":   rwLockCheckerSrc,
		"ignore-file":      fileIgnoreBaseSrc,
		"entry-closure":    entryClosureSrc,
		"entry-closure-ok": entryClosureGuardedSrc,
		"helper-order":     lockFreeHelperOrderSrc,
		"helper-race":      lockFreeHelperRaceSrc,
		"lock-wrappers":    lockWrappersSrc,
	}
	pkgs := map[string]*Package{"testdata/race": loadRaceCorpus(t)}
	for name, src := range programs {
		pkg, err := LoadFiles([]gosrc.File{{Name: "p.go", Src: src}})
		if err != nil {
			t.Fatal(err)
		}
		pkgs[name] = pkg
	}
	for name, pkg := range pkgs {
		m := pkg.concModel()
		sites := 0
		for _, entry := range pkg.Roots() {
			for _, g := range m.goroutines(pkg, entry) {
				want, ok := oracleLockSets(m, g)
				if !ok {
					t.Fatalf("%s: %s/%s: the oracle's walk does not end", name, entry, g.Root)
				}
				got := engineLockSets(m, g)
				for _, id := range g.nodes(func(int) bool { return true }) {
					_, gotSite := got.may[id]
					_, wantSite := want.may[id]
					if gotSite != wantSite || !slices.Equal(got.may[id], want.may[id]) || !slices.Equal(got.must[id], want.must[id]) {
						t.Errorf("%s: %s/%s node %d (%s:%d): lock facts %v may %q must %q, oracle %v may %q must %q",
							name, entry, g.Root, id, m.cfg.Nodes[id].Fn, m.cfg.Nodes[id].Line,
							gotSite, got.may[id], got.must[id], wantSite, want.may[id], want.must[id])
					}
				}
				sites += len(want.may)
			}
		}
		if sites == 0 && name != "chanclose" {
			t.Errorf("%s: no lock event or access node reached", name)
		}
	}
}
