package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rasc/internal/snapshot"
)

// encodeSys serializes s into a fresh container.
func encodeSys(t *testing.T, s *System) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	s.EncodeSnapshot(w)
	return w.Finish()
}

// decodeSys loads a container back into a System.
func decodeSys(t *testing.T, data []byte, alg Algebra, opts Options, identityOnly bool) *System {
	t.Helper()
	r, err := snapshot.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSystem(r, alg, opts, identityOnly)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotRoundTripExact checks the strongest property the format
// offers: a decoded System is structurally indistinguishable from the
// live one — same DOT rendering, same reach hash-table layout slot for
// slot, same stats — and re-encoding it reproduces the original bytes.
func TestSnapshotRoundTripExact(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	r := rand.New(rand.NewSource(7))
	ident := func() Annot { return Annot(mon.Identity()) }
	e := newSysEnv(alg, Options{}, 10, 3)
	e.apply(randomOps(r, 40, 10, 3, ident))
	e.s.Solve()
	e.s.Freeze()

	data := encodeSys(t, e.s)
	dec := decodeSys(t, data, alg, Options{}, true)

	if got, want := dec.Stats(), e.s.Stats(); got != want {
		t.Fatalf("Stats: got %+v want %+v", got, want)
	}
	if got, want := dec.DOT("x"), e.s.DOT("x"); got != want {
		t.Fatalf("DOT mismatch:\n got %s\nwant %s", got, want)
	}
	for v := range e.s.vars {
		lt, dt := e.s.vars[v].reach.table, dec.vars[v].reach.table
		if len(lt) != len(dt) {
			t.Fatalf("v%d: reach table size %d, want %d", v, len(dt), len(lt))
		}
		for i := range lt {
			if lt[i] != dt[i] {
				t.Fatalf("v%d: reach table slot %d is %d, want %d", v, i, dt[i], lt[i])
			}
		}
		if e.s.vars[v].uf != dec.vars[v].uf {
			t.Fatalf("v%d: uf %d, want %d", v, dec.vars[v].uf, e.s.vars[v].uf)
		}
	}
	if !bytes.Equal(encodeSys(t, dec), data) {
		t.Fatal("re-encoding the decoded System does not reproduce the original bytes")
	}
}

// Property: a fork of a decoded identity-only base, layered with
// arbitrary annotated constraints, answers every query exactly as a
// fork of the live base — same annotation sets, same clash list, same
// PN fact discovery order. This is the contract the driver's snapshot
// cache depends on for byte-identical findings.
func TestQuickSnapshotForkEquivalence(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	const nVars, nConsts = 8, 3
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ident := func() Annot { return Annot(mon.Identity()) }
		anyAnnot := func() Annot { return Annot(r.Intn(mon.Size())) }
		baseOps := randomOps(r, 12, nVars, nConsts, ident)
		layerOps := randomOps(r, 10, nVars, nConsts, anyAnnot)

		base := newSysEnv(alg, Options{}, nVars, nConsts)
		base.apply(baseOps)
		base.s.Solve()
		base.s.Freeze()

		data := encodeSys(t, base.s)
		rd, err := snapshot.NewReader(data)
		if err != nil {
			return false
		}
		decoded, err := DecodeSystem(rd, alg, Options{}, true)
		if err != nil {
			return false
		}

		live := base.fork(alg)
		live.apply(layerOps)
		live.s.Solve()

		loaded := &sysEnv{s: decoded.Fork(alg), pair: base.pair, pairs: base.pairs, vars: base.vars, consts: base.consts}
		loaded.apply(layerOps)
		loaded.s.Solve()

		if live.s.Stats() != loaded.s.Stats() {
			return false
		}
		for ci := range live.consts {
			for vi := range live.vars {
				if !annotsEqual(
					loaded.s.ConstAnnots(loaded.consts[ci], loaded.vars[vi]),
					live.s.ConstAnnots(live.consts[ci], live.vars[vi])) {
					return false
				}
			}
		}
		lc, dc := live.canonClashes(), loaded.canonClashes()
		if len(lc) != len(dc) {
			return false
		}
		for i := range lc {
			if lc[i] != dc[i] {
				return false
			}
		}
		// Fact discovery order, not just fact sets: witness extraction
		// and finding order depend on it.
		pnLive := live.s.PNReach(live.consts[0]).Facts()
		pnLoaded := loaded.s.PNReach(loaded.consts[0]).Facts()
		if len(pnLive) != len(pnLoaded) {
			return false
		}
		for i := range pnLive {
			if pnLive[i] != pnLoaded[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// An annotated (non-skeleton) System still round-trips when the caller
// does not demand identity-only annotations.
func TestSnapshotAnnotatedRoundTrip(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	r := rand.New(rand.NewSource(3))
	anyAnnot := func() Annot { return Annot(r.Intn(mon.Size())) }
	e := newSysEnv(alg, Options{}, 8, 3)
	e.apply(randomOps(r, 30, 8, 3, anyAnnot))
	e.s.Solve()
	e.s.Freeze()

	data := encodeSys(t, e.s)
	dec := decodeSys(t, data, alg, Options{}, false)
	if dec.Stats() != e.s.Stats() {
		t.Fatalf("Stats: got %+v want %+v", dec.Stats(), e.s.Stats())
	}
	if !bytes.Equal(encodeSys(t, dec), data) {
		t.Fatal("annotated round trip is not byte-stable")
	}

	// The same bytes must be rejected under the skeleton contract.
	rd, err := snapshot.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSystem(rd, alg, Options{}, true); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("identity-only decode of annotated snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotOptionsMismatch(t *testing.T) {
	mon := oneBitMonoid(t)
	alg := FuncAlgebra{mon}
	e := newSysEnv(alg, Options{}, 4, 2)
	e.s.AddVarE(e.vars[0], e.vars[1])
	e.s.Solve()
	data := encodeSys(t, e.s)
	rd, err := snapshot.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSystem(rd, alg, Options{NoCycleElim: true}, true); err == nil {
		t.Fatal("decode under different Options succeeded")
	}
}

// duplicated, the decoder's check that a list holds no entry twice,
// finds a repeated entry anywhere in a list, a long one or one of two
// entries.
func TestDuplicated(t *testing.T) {
	list := make([]edge, 48)
	for i := range list {
		list[i] = edge{VarID(i), Annot(i % 3)}
	}
	if duplicated(list) {
		t.Fatal("a duplicate-free list reported duplicated")
	}
	for _, l := range [][]edge{nil, list[:1], list[:2], {list[0], list[0]}} {
		if got, want := duplicated(l), len(l) == 2 && l[0] == l[1]; got != want {
			t.Errorf("%v: duplicated = %v, want %v", l, got, want)
		}
	}
	for _, p := range [][2]int{{0, 1}, {3, 16}, {0, 21}, {18, len(list) - 1}} {
		l := slices.Clone(list)
		l[p[1]] = l[p[0]]
		if !duplicated(l) {
			t.Errorf("entries %d and %d equal, not reported", p[0], p[1])
		}
	}
}
