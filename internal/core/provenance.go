package core

// Finding provenance: a rendered form of the witness machinery. The
// solver already records, per derived fact, the edge or merge that
// first produced it (the parent records of addReach) and PN queries
// keep the analogous pnParent per fact; Provenance re-reads those
// structures into an explicit derivation chain from a seed constraint
// to the queried fact. Nothing here adds solver state: the solver always
// keeps the parent records, so provenance extraction is a pure read and
// cannot perturb what the solver derives.
//
// Soundness caveat: parent records keep only the FIRST derivation of
// each fact. The chain is therefore one valid derivation, not the only
// one, and after cycle elimination merged hops carry the merge
// representative rather than the original variable.

// Provenance rule names, one per derivation step kind.
const (
	ProvSeed = "seed" // original lower-bound constraint
	ProvEdge = "edge" // propagated across an annotated variable edge
	ProvWrap = "wrap" // unmatched constructor wrap (PN "call" step)
	ProvPop  = "pop"  // unmatched projection (PN "return" step)
)

// ProvStep is one hop of a derivation chain, oldest first.
type ProvStep struct {
	// Var is the variable the fact held at after this hop.
	Var VarID
	// Annot is the composed annotation at that point.
	Annot Annot
	// Rule is the derivation rule that produced the hop (Prov* above).
	Rule string
	// Via is the constructor expression wrapped through on a ProvWrap
	// hop, -1 otherwise.
	Via CNode
}

// ProvFromTrace renders a witness trace (as returned by Witness or
// PNResult.Trace, oldest first) into a derivation chain. Clients that
// already hold trace steps can render them without re-querying.
func ProvFromTrace(steps []TraceStep) []ProvStep {
	if len(steps) == 0 {
		return nil
	}
	out := make([]ProvStep, len(steps))
	for i, st := range steps {
		rule := ProvEdge
		switch {
		case i == 0:
			rule = ProvSeed
		case st.Wrapped >= 0:
			rule = ProvWrap
		case st.Popped:
			rule = ProvPop
		}
		out[i] = ProvStep{Var: st.Var, Annot: st.Annot, Rule: rule, Via: st.Wrapped}
	}
	return out
}

// Provenance returns the derivation chain for the PN fact (v, a),
// oldest first: how the queried constant came to occur at v with
// annotation a. Returns nil for an unknown fact.
func (r *PNResult) Provenance(v VarID, a Annot) []ProvStep {
	return ProvFromTrace(r.Trace(v, a))
}

// ProvenanceOf returns the derivation chain for the top-level reach
// fact (cn, a) at v, oldest first. Returns nil for an unknown fact.
func (s *System) ProvenanceOf(v VarID, cn CNode, a Annot) []ProvStep {
	return ProvFromTrace(s.Witness(v, cn, a))
}
