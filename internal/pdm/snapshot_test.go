package pdm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/snapshot"
	"rasc/internal/spec"
)

const snapTestSrc = `
void main() {
    int f = open("a");
    if (f) { use(f); helper(f); }
    while (f) { int g = open("b"); close(g); }
    close(f);
}
void helper(int f) {
    use(f);
    int g = open("c");
    close(g);
}
void other() {
    int h = open("d");
    helper(h);
}`

func snapTestProp(t *testing.T) (*spec.Property, *minic.EventMap) {
	t.Helper()
	prop := spec.MustCompile(`
start state Closed :
    | open -> Open;
state Open :
    | close -> Closed
    | use_closed -> Error;
accept state Error;
`)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "open", ArgIndex: -1, Symbol: "open", LabelFromAssign: true},
		{Callee: "close", ArgIndex: 0, Symbol: "close", LabelArg: 0},
	}}
	return prop, events
}

func buildSnapTestSkeleton(t *testing.T) (*ir.Program, *Skeleton) {
	t.Helper()
	prog, err := ir.FromMiniC(snapTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(prog, "main", core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog, sk
}

// A snapshot-loaded skeleton must be indistinguishable from the live
// one: same entry, same base stats, same deferred count, and identical
// Check results — violations, traces, provenance — for a real property.
func TestSkeletonSnapshotRoundTrip(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()
	loaded, err := LoadSkeleton(data, prog, "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entry() != live.Entry() {
		t.Fatalf("entry %q, want %q", loaded.Entry(), live.Entry())
	}
	if loaded.BaseStats() != live.BaseStats() {
		t.Fatalf("base stats %+v, want %+v", loaded.BaseStats(), live.BaseStats())
	}
	if loaded.Deferred() != live.Deferred() {
		t.Fatalf("deferred %d, want %d", loaded.Deferred(), live.Deferred())
	}

	prop, events := snapTestProp(t)
	for _, explain := range []bool{false, true} {
		o := &Obs{Explain: explain}
		want, err := live.CheckObs(prop, events, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.CheckObs(prop, events, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Violations, want.Violations) {
			t.Fatalf("explain=%v: violations diverge:\n got %+v\nwant %+v", explain, got.Violations, want.Violations)
		}
		if got.Sys.Stats() != want.Sys.Stats() {
			t.Fatalf("explain=%v: stats %+v, want %+v", explain, got.Sys.Stats(), want.Sys.Stats())
		}
		if got.Sys.Stats().Minus(got.Base) != want.Sys.Stats().Minus(want.Base) {
			t.Fatalf("explain=%v: layered deltas diverge", explain)
		}
	}

	// The snapshot encoding is deterministic and stable across a load.
	if !bytes.Equal(live.Snapshot(), data) {
		t.Fatal("re-snapshotting the live skeleton is not byte-stable")
	}
	if !bytes.Equal(loaded.Snapshot(), data) {
		t.Fatal("snapshotting the loaded skeleton does not reproduce the bytes")
	}
}

// A snapshot must fail to load against the wrong program or entry, and
// under different solver options.
func TestSkeletonSnapshotKeyMismatches(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()

	if _, err := LoadSkeleton(data, prog, "helper", core.Options{}); err == nil {
		t.Fatal("load under a different entry succeeded")
	}
	if _, err := LoadSkeleton(data, prog, "main", core.Options{NoProjMerge: true}); err == nil {
		t.Fatal("load under different options succeeded")
	}
	other, err := ir.FromMiniC(`void main() { int f = open("a"); close(f); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSkeleton(data, other, "main", core.Options{}); err == nil {
		t.Fatal("load against a different program succeeded")
	}
}

// Version-skewed containers are classified as snapshot.ErrVersion so
// cache layers can count them separately from corruption.
func TestSkeletonSnapshotVersionSkew(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()
	binary.LittleEndian.PutUint32(data[4:], 0x7fffffff)
	data = snapshot.Reseal(data)
	_, err := LoadSkeleton(data, prog, "main", core.Options{})
	if !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// Truncations and bit flips must surface as errors, never panics or
// wrong skeletons. This is the deterministic companion of
// FuzzSnapshotDecode.
func TestSkeletonSnapshotCorruption(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()
	for n := 0; n < len(data); n += 7 {
		if _, err := LoadSkeleton(data[:n], prog, "main", core.Options{}); err == nil {
			t.Fatalf("truncation to %d bytes loaded", n)
		}
	}
	for off := 0; off < len(data); off += 11 {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[off] ^= 0x10
		if _, err := LoadSkeleton(mut, prog, "main", core.Options{}); err == nil {
			// A flip in a section the SHA covers must be caught; offsets
			// before the SHA (magic/version) are caught structurally. A
			// successful load can only happen if the flip was resealed —
			// which plain flips never are.
			t.Fatalf("bit flip at offset %d loaded", off)
		}
	}
}

// patchSection rewrites the uint32 payload of section id in place and
// reseals the container, producing a structurally damaged snapshot
// that passes the integrity layer.
func patchSection(t testing.TB, data []byte, id uint32, patch func(words []uint32)) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	n := binary.LittleEndian.Uint32(out[8:])
	for i := uint32(0); i < n; i++ {
		e := out[48+16*i:]
		if binary.LittleEndian.Uint32(e) != id {
			continue
		}
		off, length := binary.LittleEndian.Uint32(e[4:]), binary.LittleEndian.Uint32(e[8:])
		words := make([]uint32, length/4)
		for j := range words {
			words[j] = binary.LittleEndian.Uint32(out[off+4*uint32(j):])
		}
		patch(words)
		for j, w := range words {
			binary.LittleEndian.PutUint32(out[off+4*uint32(j):], w)
		}
		return snapshot.Reseal(out)
	}
	t.Fatalf("snapshot has no section %d", id)
	return nil
}

// sliceCorruptions returns resealed snapshots of main's skeleton whose
// node-variable map or deferred list contradicts main's call-graph
// slice (which excludes other), or whose deferred list is out of the
// node order property layers rely on.
func sliceCorruptions(t testing.TB, prog *ir.Program, data []byte) map[string][]byte {
	t.Helper()
	cfg := prog.Graph
	otherCall := -1
	for _, n := range cfg.Nodes {
		if n.Fn == "other" && n.Call != nil {
			otherCall = n.ID
			break
		}
	}
	if otherCall < 0 {
		t.Fatal("corpus has no call statement in other")
	}
	return map[string][]byte{
		"in-slice node absent": patchSection(t, data, secPDMNodeVar, func(w []uint32) {
			w[cfg.Entry["helper"]] = absentWord
		}),
		"out-of-slice node has a variable": patchSection(t, data, secPDMNodeVar, func(w []uint32) {
			w[cfg.Entry["other"]] = 0
		}),
		"deferred node outside the slice": patchSection(t, data, secPDMDeferred, func(w []uint32) {
			w[0] = uint32(otherCall)
		}),
		"deferred nodes out of node order": patchSection(t, data, secPDMDeferred, func(w []uint32) {
			for i := 0; i < 3; i++ {
				w[i], w[3+i] = w[3+i], w[i]
			}
		}),
	}
}

// sectionWords returns a copy of the uint32 payload of section id.
func sectionWords(t testing.TB, data []byte, id uint32) []uint32 {
	var out []uint32
	patchSection(t, data, id, func(w []uint32) { out = append(out, w...) })
	return out
}

// listCorruptions returns resealed snapshots in which one variable's
// out-edge list, or one variable's projection list, holds its first
// entry twice: the second entry is overwritten with the first.
func listCorruptions(t testing.TB, data []byte) map[string][]byte {
	t.Helper()
	dup := func(offsID, listID uint32, width int) []byte {
		offs := sectionWords(t, data, offsID)
		for v := 0; v+1 < len(offs); v++ {
			if offs[v+1]-offs[v] >= 2 {
				first := int(offs[v]) * width
				return patchSection(t, data, listID, func(w []uint32) {
					copy(w[first+width:first+2*width], w[first:first+width])
				})
			}
		}
		t.Fatalf("no variable has two entries in section %d", listID)
		return nil
	}
	// The core sections: 8 and 9 hold the out-edge offsets and (to, a)
	// pairs, 12 and 13 the projection offsets and (cons, idx, to, a)
	// quads.
	return map[string][]byte{
		"edge list holds an entry twice":       dup(8, 9, 2),
		"projection list holds an entry twice": dup(12, 13, 4),
	}
}

// The decoder rejects a variable's out-edge or projection list that
// holds an entry twice: the solver never builds one, and dedup on a
// decoded system checks each new entry against the list as it stands.
func TestSkeletonSnapshotDuplicateLists(t *testing.T) {
	// helper's two call sites give its exit two projections; the
	// branches give nodes two out edges.
	prog, err := ir.FromMiniC(`
void main() {
    int f = open("a");
    if (f) { helper(f); } else { use(f); }
    helper(f);
    close(f);
}
void helper(int f) {
    while (f) { use(f); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	_, events := snapTestProp(t)
	sk, err := BuildSkeleton(prog, "main", core.Options{}, func(call *minic.CallExpr, assignTo string) bool {
		_, ok := events.Match(call, assignTo)
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	data := sk.Snapshot()
	if _, err := LoadSkeleton(data, prog, "main", core.Options{}); err != nil {
		t.Fatal(err)
	}
	for name, data := range listCorruptions(t, data) {
		_, err := LoadSkeleton(data, prog, "main", core.Options{})
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("%s: err = %v, want ErrCorrupt for a duplicate", name, err)
		}
	}
}

// A skeleton covers exactly its entry's call-graph slice: the live build
// gives variables to main's and helper's nodes only, and the decoder
// rejects a snapshot that disagrees with the slice as corrupt, before
// Check could index an absent node's variable. It also rejects a
// deferred list out of node order, which would reorder a layer's event
// nodes.
func TestSkeletonSnapshotSliceValidation(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	for id, v := range live.nodeVar {
		if fn := prog.Graph.Nodes[id].Fn; (v == absentVar) != (fn == "other") {
			t.Fatalf("node %d in %s has variable %d", id, fn, v)
		}
	}
	for name, data := range sliceCorruptions(t, prog, live.Snapshot()) {
		if _, err := LoadSkeleton(data, prog, "main", core.Options{}); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzSnapshotDecode hardens the decoder: arbitrary mutations of a real
// snapshot — resealed so the integrity layer passes and the structural
// validation is actually exercised — must either fail to load or yield
// a skeleton that can run a full Check without panicking. Allocation is
// bounded by validation against the file size, so malformed lengths
// cannot OOM the process either.
func FuzzSnapshotDecode(f *testing.F) {
	prog, err := ir.FromMiniC(snapTestSrc)
	if err != nil {
		f.Fatal(err)
	}
	sk, err := BuildSkeleton(prog, "main", core.Options{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	seed := sk.Snapshot()
	f.Add(seed, uint32(0), byte(0))
	f.Add(seed, uint32(4), byte(0xff))
	f.Add(seed[:len(seed)/2], uint32(9), byte(1))
	f.Add(seed, uint32(48), byte(0x80))
	corrupt := sliceCorruptions(f, prog, seed)
	f.Add(corrupt["in-slice node absent"], uint32(0), byte(0))
	f.Add(corrupt["deferred node outside the slice"], uint32(0), byte(0))

	prop := spec.MustCompile(`
start state Closed :
    | open -> Open;
state Open :
    | close -> Closed
    | use_closed -> Error;
accept state Error;
`)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "open", ArgIndex: -1, Symbol: "open", LabelFromAssign: true},
		{Callee: "close", ArgIndex: 0, Symbol: "close", LabelArg: 0},
	}}

	f.Fuzz(func(t *testing.T, data []byte, off uint32, flip byte) {
		if len(data) > 0 {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[int(off)%len(mut)] ^= flip
			data = snapshot.Reseal(mut)
		}
		loaded, err := LoadSkeleton(data, prog, "main", core.Options{})
		if err != nil {
			return
		}
		// A mutation that survives both integrity and structural
		// validation must still behave: checking a property may give any
		// verdict, but it must not crash.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Check panicked on decoded mutant: %v", r)
			}
		}()
		if _, err := loaded.Check(prop, events); err != nil {
			_ = fmt.Sprintf("%v", err)
		}
	})
}
