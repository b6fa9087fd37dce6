package ir

import (
	"crypto/sha256"
	"sort"

	"rasc/internal/minic"
)

// NewIncremental lowers a kernel program like New, but reuses function
// Fingerprints from a previous lowering of the same evolving program
// wherever that is provably sound, skipping the per-statement hash walk
// for unchanged bodies. It exists for resident drivers that re-lower a
// program after a small file delta: the memoized front end (gosrc.Memo)
// shares *minic.FuncDef pointers for untouched files, so almost every
// function's fingerprint carries over and re-lowering cost tracks the
// size of the edit, not the program. The rest are hashed on GOMAXPROCS
// workers, as in New.
//
// A fingerprint covers the function's own normalized content plus, for
// every call expression, the canonical name the call resolves to. Reuse
// is therefore sound iff
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
// to recompute wholesale when they happen. Summaries are always
// recomputed — the SCC closure pass is linear in the call graph and not
// worth caching.
//
// New and NewIncremental produce identical Programs for identical
// inputs; TestNewIncrementalEquivalence enforces this.
func NewIncremental(mc *minic.Program, meta Meta, prev *Program) (*Program, error) {
	p, err := build(mc, meta)
	if err != nil {
		return nil, err
	}
	if prev == nil {
		p.fingerprint()
		return p, nil
	}
	reuse := resolutionDigest(mc) == resolutionDigest(prev.MC)
	ForEach(len(p.Funcs), func(fw *fpWriter, i int) {
		f := p.Funcs[i]
		if reuse {
			if pf, ok := prev.ByName[f.Name]; ok && pf.Def == f.Def {
				f.Fingerprint = pf.Fingerprint
				return
			}
		}
		fw.mc = mc
		f.Fingerprint = fw.function(f.Def)
	})
	p.summarize()
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
