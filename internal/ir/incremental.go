package ir

import (
	"crypto/sha256"
	"sort"

	"rasc/internal/minic"
)

// NewIncremental lowers a kernel program like New, but carries over
// from a previous lowering of the same evolving program what provably
// stays the same: an unedited function's Fingerprint, and its CFG nodes
// when it keeps its node IDs. It exists for resident drivers that
// re-lower a program after a small file delta: the memoized front end
// (gosrc.Memo) shares *minic.FuncDef pointers for untouched files, so
// almost every function carries over and re-lowering cost tracks the
// size of the edit, not the program.
//
// A function's CFG nodes come only from its own statements and from
// which of its calls resolve (a call to a defined Lock is not a lock
// event), and its fingerprint covers its own normalized content plus,
// for every call expression, the canonical name the call resolves to.
// Reuse is therefore sound iff
//
//   - the definition is the same object as before (pointer identity —
//     front ends never mutate a FuncDef after translation, so identity
//     proves content equality), and
//   - every name resolves exactly as it did before, which is implied by
//     the two programs having equal resolution maps (same alias →
//     canonical-name pairs).
//
// The second condition is checked once per call via a digest of the
// whole resolution map rather than per function: resolution changes are
// rare (a definition or alias appeared, vanished, or moved) and cheap
// to recompute wholesale when they happen.
//
// A kept function that lands at the node IDs it had shares the previous
// Graph's node pointers; one that an earlier size change moved is laid
// out again like an edited one (minic.BuildFrom). Every function's
// callee edges are read off its nodes, and the functions without a
// carried Fingerprint are hashed on GOMAXPROCS workers, as in New. The
// SCC condensation and the Summaries are always recomputed: both passes
// are linear in the call graph and not worth caching.
//
// New and NewIncremental produce identical Programs for identical
// inputs, down to the CFG's node IDs, so output and cache keys cannot
// depend on edit history; TestNewIncrementalEquivalence enforces this.
func NewIncremental(mc *minic.Program, meta Meta, prev *Program) (*Program, error) {
	if prev != nil && resolutionDigest(mc) != resolutionDigest(prev.MC) {
		prev = nil
	}
	p, err := build(mc, meta, prev)
	if err != nil {
		return nil, err
	}
	p.fingerprint()
	return p, nil
}

// resolutionDigest hashes a program's name-resolution map: every name
// the kernel resolves (canonical names and aliases) paired with the
// canonical definition it resolves to. Two programs with equal digests
// resolve every call expression identically.
func resolutionDigest(mc *minic.Program) Digest {
	pairs := make([]string, 0, len(mc.ByName))
	for alias, fd := range mc.ByName {
		pairs = append(pairs, alias+"\x00"+fd.Name)
	}
	sort.Strings(pairs)
	var buf []byte
	for _, pr := range pairs {
		buf = append(append(buf, pr...), '\n')
	}
	return sha256.Sum256(buf)
}
