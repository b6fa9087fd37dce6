package pdm

import (
	"fmt"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/snapshot"
	"rasc/internal/terms"
)

// Skeleton snapshot sections; core owns ids below 100. The skeleton
// layer stores only what BuildSkeleton computed beyond the solved
// System: the entry name, the pc node, the CFG-node variable map (with
// the nodes outside the entry's slice marked absent) and the
// deferred-statement list. Program and CFG are not serialized — a
// snapshot is only valid against the *ir.Program it was built from,
// which a caller that stores snapshots must guarantee, for instance by
// keying them by the entry's summary digest.
const (
	secPDMMeta     = 100 // pc CNode, entry strRef
	secPDMStrBlob  = 101
	secPDMStrOffs  = 102
	secPDMNodeVar  = 103 // VarID per CFG node, absentWord outside the slice
	secPDMDeferred = 104 // (nodeID, calleeRef+1 or 0, consID) triples
)

// absentWord encodes absentVar in the node-variable section.
const absentWord = 0xFFFFFFFF

// Snapshot serializes the skeleton — the frozen solved System plus the
// skeleton-layer tables — into a self-validating container. The result
// is deterministic: equal skeletons produce equal bytes.
func (sk *Skeleton) Snapshot() []byte {
	w := snapshot.NewWriter()
	sk.sys.EncodeSnapshot(w)
	sb := snapshot.NewStringBuilder()
	w.Uint32s(secPDMMeta, []uint32{uint32(sk.pc), sb.Ref(sk.entry)})
	nodeVar := make([]uint32, len(sk.nodeVar))
	for i, v := range sk.nodeVar {
		nodeVar[i] = uint32(v)
	}
	w.Uint32s(secPDMNodeVar, nodeVar)
	def := make([]uint32, 0, 3*len(sk.deferred))
	for _, d := range sk.deferred {
		callee := uint32(0)
		if d.callee != "" {
			callee = sb.Ref(d.callee) + 1
		}
		def = append(def, uint32(d.id), callee, uint32(d.cons))
	}
	w.Uint32s(secPDMDeferred, def)
	sb.Flush(w, secPDMStrBlob, secPDMStrOffs)
	return w.Finish()
}

// LoadSkeleton reconstructs a Skeleton for entry over p from a Snapshot,
// skipping BuildSkeleton's translation and solve entirely: the solved
// skeleton system is decoded straight out of the byte buffer. The decoded
// system is checked against the skeleton contract (identity-only
// annotations, matching Options) and every cross-reference into p's CFG
// and function table is validated, so a snapshot taken from a different
// program version fails loudly instead of yielding wrong results.
//
// Errors wrap snapshot.ErrVersion for format-version skew and (for
// structural damage) snapshot.ErrCorrupt; on either, the caller must
// fall back to a live BuildSkeleton.
func LoadSkeleton(data []byte, p *ir.Program, entry string, opts core.Options) (*Skeleton, error) {
	prog, cfg := p.MC, p.Graph
	entry, slice, err := entrySlice(p, entry)
	if err != nil {
		return nil, err
	}

	r, err := snapshot.NewReader(data)
	if err != nil {
		return nil, err
	}
	sys, err := core.DecodeSystem(r, skelAlgebra{}, opts, true)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: pdm: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}

	strs, err := snapshot.ReadStrings(r, secPDMStrBlob, secPDMStrOffs)
	if err != nil {
		return nil, err
	}
	meta, err := r.Uint32s(secPDMMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != 2 {
		return nil, bad("meta section has %d words, want 2", len(meta))
	}
	pc := meta[0]
	if int(pc) >= sys.NumConsNodes() {
		return nil, bad("pc node %d out of range", pc)
	}
	if sys.Sig.Name(sys.ConsOf(core.CNode(pc))) != "pc" {
		return nil, bad("pc node %d is not the pc constant", pc)
	}
	snapEntry, err := strs.At(meta[1])
	if err != nil {
		return nil, err
	}
	if snapEntry != entry {
		return nil, bad("snapshot is for entry %q, want %q", snapEntry, entry)
	}

	nodeVarWords, err := r.Uint32s(secPDMNodeVar)
	if err != nil {
		return nil, err
	}
	if len(nodeVarWords) != len(cfg.Nodes) {
		return nil, bad("node-var section has %d entries, CFG has %d nodes", len(nodeVarWords), len(cfg.Nodes))
	}
	// Exactly the entry's slice has variables: an in-slice node marked
	// absent would index nodeVar[-1] inside Check, and a variable on an
	// out-of-slice node means the snapshot was built over another slice.
	// Past this loop, nodeVar[id] != absentVar iff node id is in slice.
	nodeVar := make([]core.VarID, len(nodeVarWords))
	next := 0 // index into slice of the first node not yet passed
	for i, v := range nodeVarWords {
		in := next < len(slice) && slice[next] == i
		if in {
			next++
		}
		switch {
		case !in:
			if v != absentWord {
				return nil, bad("node %d outside the entry's slice maps to variable %d", i, v)
			}
			nodeVar[i] = absentVar
		case v == absentWord:
			return nil, bad("node %d in the entry's slice has no variable", i)
		case int(v) >= sys.NumVars():
			return nil, bad("node %d maps to variable %d out of range (%d vars)", i, v, sys.NumVars())
		default:
			nodeVar[i] = core.VarID(v)
		}
	}

	def, err := r.Uint32s(secPDMDeferred)
	if err != nil {
		return nil, err
	}
	if len(def)%3 != 0 {
		return nil, bad("deferred section has %d words, not triples", len(def))
	}
	deferred := make([]deferredNode, len(def)/3)
	for i := range deferred {
		id, calleeRef, cons := def[3*i], def[3*i+1], def[3*i+2]
		if int(id) >= len(cfg.Nodes) {
			return nil, bad("deferred node %d out of CFG range", id)
		}
		if nodeVar[id] == absentVar {
			return nil, bad("deferred node %d is outside the entry's slice", id)
		}
		if cfg.Nodes[id].Call == nil {
			return nil, bad("deferred node %d is not a call statement", id)
		}
		if i > 0 && int(id) <= deferred[i-1].id {
			return nil, bad("deferred node %d follows node %d: not in node order", id, deferred[i-1].id)
		}
		d := deferredNode{id: int(id)}
		if calleeRef != 0 {
			callee, err := strs.At(calleeRef - 1)
			if err != nil {
				return nil, err
			}
			fd, ok := prog.ByName[callee]
			if !ok || fd.Name != callee {
				return nil, bad("deferred node %d names undefined callee %q", id, callee)
			}
			if en, ok := cfg.Entry[callee]; !ok || nodeVar[en] == absentVar {
				return nil, bad("callee %q has no CFG entry in the entry's slice", callee)
			}
			if ex, ok := cfg.Exit[callee]; !ok || nodeVar[ex] == absentVar {
				return nil, bad("callee %q has no CFG exit in the entry's slice", callee)
			}
			if int(cons) >= sys.Sig.Size() || sys.Sig.Arity(terms.ConsID(cons)) != 1 {
				return nil, bad("deferred node %d has invalid call constructor %d", id, cons)
			}
			d.callee = callee
			d.cons = terms.ConsID(cons)
		}
		deferred[i] = d
	}

	// Closures do not serialize: reinstall BuildSkeleton's renderer.
	setNodeNames(sys, cfg, slice, nodeVar)

	return &Skeleton{
		prog:     prog,
		cfg:      cfg,
		entry:    entry,
		sys:      sys,
		slice:    slice,
		nodeVar:  nodeVar,
		pc:       core.CNode(pc),
		base:     sys.Stats(),
		deferred: deferred,
	}, nil
}
