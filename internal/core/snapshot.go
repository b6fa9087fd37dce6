package core

import (
	"fmt"
	"math"
	"unsafe"

	"rasc/internal/snapshot"
	"rasc/internal/terms"
)

// Snapshot section ids of the core layer. Higher layers (pdm) add their
// own sections to the same container starting at id 100; ids here must
// stay stable within a snapshot.FormatVersion.
const (
	secMeta        = 1  // numVars, numCons, nEdges, nReach, nCollapsed, optFlags, cycleBudget
	secStrBlob     = 2  // string table blob
	secStrOffs     = 3  // string table offsets
	secUF          = 4  // union-find parent per var (normalized: parents are roots)
	secVarNames    = 5  // sparse (var, strRef) pairs
	secVarPrefixes = 6  // sparse (var, 1-based prefix index) pairs
	secPrefixes    = 7  // strRef per freshPrefixes entry, in order
	secEdgeOffs    = 8  // per-var out-edge offsets (numVars+1)
	secEdges       = 9  // flat (to, a) pairs
	secSinkOffs    = 10 // per-var sink offsets
	secSinks       = 11 // flat (cn, a) pairs
	secProjOffs    = 12 // per-var projection offsets
	secProjs       = 13 // flat (cons, idx, to, a) quads
	secArgOffs     = 14 // per-var argOf offsets
	secArgOf       = 15 // flat (cn, idx) pairs
	secReachOffs   = 16 // per-var reach-fact offsets
	secReach       = 17 // flat (cn, a, fromVar, parAnnot, step) quints
	secConsHeads   = 18 // constructor id per cons node
	secConsArgOffs = 19 // per-cons argument offsets
	secConsArgs    = 20 // flat argument VarIDs
	secOccurOffs   = 21 // per-cons occurrence offsets
	secOccur       = 22 // flat (v, a) pairs
	secRaw         = 23 // flat (kind, x, y, cn, cons, idx, a) septets
	secClashes     = 24 // flat (src, dst, a) triples
	secProjMerge   = 25 // flat (var, cons, idx, w) quads, sorted
	secSigCons     = 26 // (nameRef, arity) per signature constructor
	secSigVariance = 27 // one byte per constructor argument, in order
)

// optFlags packs the Options into a bitmask for the meta section. The
// value 8 marked a witness-tracking option, since removed; the other
// options keep their values, so encoded bytes stay as they were.
func optFlags(o Options) uint32 {
	var f uint32
	if o.NoCycleElim {
		f |= 1
	}
	if o.NoProjMerge {
		f |= 2
	}
	if o.NoHashCons {
		f |= 4
	}
	if o.PruneDead {
		f |= 16
	}
	return f
}

// EncodeSnapshot serializes the receiver — which must be solved — into
// w's sections. The encoder normalizes the union-find first (Freeze is
// idempotent, so calling it on an already-frozen System performs no
// writes), then emits every per-variable and per-cons-node array as
// offset-indexed flat uint32 sections in deterministic order, so equal
// Systems encode to equal bytes.
//
// The intern and clash tables and the reach hash indexes are not
// serialized: DecodeSystem rebuilds them from the arrays, which is both
// smaller on disk and equivalent for every operation on the decoded
// System or a fork of it.
func (s *System) EncodeSnapshot(w *snapshot.Writer) {
	if len(s.work) > 0 {
		panic("core: EncodeSnapshot of an unsolved System (call Solve first)")
	}
	s.Freeze()
	sb := snapshot.NewStringBuilder()
	numVars, numCons := len(s.vars), len(s.cons)

	w.Uint32s(secMeta, []uint32{
		uint32(numVars), uint32(numCons),
		uint32(s.nEdges), uint32(s.nReach), uint32(s.nCollapsed),
		optFlags(s.opts), cycleBudget,
	})

	uf := make([]uint32, numVars)
	var names, prefixPairs []uint32
	for v := range s.vars {
		uf[v] = uint32(s.vars[v].uf)
		if s.vars[v].name != "" {
			names = append(names, uint32(v), sb.Ref(s.vars[v].name))
		}
		if s.vars[v].prefix != 0 {
			prefixPairs = append(prefixPairs, uint32(v), uint32(s.vars[v].prefix))
		}
	}
	w.Uint32s(secUF, uf)
	w.Uint32s(secVarNames, names)
	w.Uint32s(secVarPrefixes, prefixPairs)
	prefixes := make([]uint32, len(s.freshPrefixes))
	for i, p := range s.freshPrefixes {
		prefixes[i] = sb.Ref(p)
	}
	w.Uint32s(secPrefixes, prefixes)

	// Per-var arrays: one offsets section plus one flat section each.
	eoffs := make([]uint32, 0, numVars+1)
	var eflat []uint32
	soffs := make([]uint32, 0, numVars+1)
	var sflat []uint32
	poffs := make([]uint32, 0, numVars+1)
	var pflat []uint32
	aoffs := make([]uint32, 0, numVars+1)
	var aflat []uint32
	roffs := make([]uint32, 0, numVars+1)
	var rflat []uint32
	eoffs, soffs, poffs, aoffs, roffs = append(eoffs, 0), append(soffs, 0), append(poffs, 0), append(aoffs, 0), append(roffs, 0)
	var nEdges, nSinks, nProjs, nArgs, nFacts uint32
	for v := range s.vars {
		vd := &s.vars[v]
		for _, e := range vd.out {
			eflat = append(eflat, uint32(e.to), uint32(e.a))
		}
		nEdges += uint32(len(vd.out))
		eoffs = append(eoffs, nEdges)
		for _, sk := range vd.sinks {
			sflat = append(sflat, uint32(sk.cn), uint32(sk.a))
		}
		nSinks += uint32(len(vd.sinks))
		soffs = append(soffs, nSinks)
		for _, pr := range vd.projs {
			pflat = append(pflat, uint32(pr.cons), uint32(pr.idx), uint32(pr.to), uint32(pr.a))
		}
		nProjs += uint32(len(vd.projs))
		poffs = append(poffs, nProjs)
		for _, au := range vd.argOf {
			aflat = append(aflat, uint32(au.cn), uint32(au.idx))
		}
		nArgs += uint32(len(vd.argOf))
		aoffs = append(aoffs, nArgs)
		for i := range vd.reach.facts {
			f := &vd.reach.facts[i]
			rflat = append(rflat, uint32(f.cn), uint32(f.a),
				uint32(int32(f.par.fromVar)), uint32(f.par.annot), uint32(f.par.step))
		}
		nFacts += uint32(len(vd.reach.facts))
		roffs = append(roffs, nFacts)
	}
	w.Uint32s(secEdgeOffs, eoffs)
	w.Uint32s(secEdges, eflat)
	w.Uint32s(secSinkOffs, soffs)
	w.Uint32s(secSinks, sflat)
	w.Uint32s(secProjOffs, poffs)
	w.Uint32s(secProjs, pflat)
	w.Uint32s(secArgOffs, aoffs)
	w.Uint32s(secArgOf, aflat)
	w.Uint32s(secReachOffs, roffs)
	w.Uint32s(secReach, rflat)

	heads := make([]uint32, numCons)
	caoffs := make([]uint32, 0, numCons+1)
	caoffs = append(caoffs, 0)
	var caflat []uint32
	ooffs := make([]uint32, 0, numCons+1)
	ooffs = append(ooffs, 0)
	var oflat []uint32
	var nCArgs, nOccur uint32
	for cn := range s.cons {
		cd := &s.cons[cn]
		heads[cn] = uint32(cd.cons)
		for _, a := range cd.args {
			caflat = append(caflat, uint32(a))
		}
		nCArgs += uint32(len(cd.args))
		caoffs = append(caoffs, nCArgs)
		for _, oc := range cd.occur {
			oflat = append(oflat, uint32(oc.v), uint32(oc.a))
		}
		nOccur += uint32(len(cd.occur))
		ooffs = append(ooffs, nOccur)
	}
	w.Uint32s(secConsHeads, heads)
	w.Uint32s(secConsArgOffs, caoffs)
	w.Uint32s(secConsArgs, caflat)
	w.Uint32s(secOccurOffs, ooffs)
	w.Uint32s(secOccur, oflat)

	rawFlat := make([]uint32, 0, 7*len(s.raw))
	for _, rc := range s.raw {
		rawFlat = append(rawFlat, uint32(rc.kind), uint32(rc.x), uint32(rc.y),
			uint32(rc.cn), uint32(rc.cons), uint32(rc.idx), uint32(rc.a))
	}
	w.Uint32s(secRaw, rawFlat)

	clashFlat := make([]uint32, 0, 3*len(s.clashes))
	for _, c := range s.clashes {
		clashFlat = append(clashFlat, uint32(c.Src), uint32(c.Dst), uint32(c.Annot))
	}
	w.Uint32s(secClashes, clashFlat)

	// projMerge maps are unordered; emit entries sorted by (var, cons,
	// idx) so encoding is deterministic.
	var pm []uint32
	for v := range s.vars {
		m := s.vars[v].projMerge
		if len(m) == 0 {
			continue
		}
		keys := make([]projMergeKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && (keys[j].cons < keys[j-1].cons ||
				(keys[j].cons == keys[j-1].cons && keys[j].idx < keys[j-1].idx)); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, k := range keys {
			pm = append(pm, uint32(v), uint32(k.cons), uint32(k.idx), uint32(m[k]))
		}
	}
	w.Uint32s(secProjMerge, pm)

	sigCons := make([]uint32, 0, 2*s.Sig.Size())
	var variance []byte
	for i := 0; i < s.Sig.Size(); i++ {
		id := terms.ConsID(i)
		sigCons = append(sigCons, sb.Ref(s.Sig.Name(id)), uint32(s.Sig.Arity(id)))
		for j := 0; j < s.Sig.Arity(id); j++ {
			variance = append(variance, byte(s.Sig.VarianceOf(id, j)))
		}
	}
	w.Uint32s(secSigCons, sigCons)
	w.Bytes(secSigVariance, variance)
	sb.Flush(w, secStrBlob, secStrOffs)
}

// Layout guards for the bulk-aliasing fast path below: a decoded flat
// uint32 section may be reinterpreted as a []edge (etc.) only when the
// struct is two naturally-aligned 32-bit fields with no padding.
var (
	canAliasEdge  = unsafe.Sizeof(edge{}) == 8 && unsafe.Alignof(edge{}) <= 4
	canAliasSink  = unsafe.Sizeof(sinkRef{}) == 8 && unsafe.Alignof(sinkRef{}) <= 4
	canAliasOccur = unsafe.Sizeof(varAnnot{}) == 8 && unsafe.Alignof(varAnnot{}) <= 4
)

// DecodeSystem reconstructs a frozen System from r's core sections,
// without re-solving: the edge lists, reach facts and raw constraints
// are loaded in their serialized order (so queries, witnesses and fact
// discovery order are byte-identical to the live build), the reach hash
// indexes are rebuilt by replaying insertions into their final-size
// tables (which reproduces the live probe layout exactly), and the
// intern tables and the clash set are filled as plain maps from the
// decoded names, constructor expressions and clashes.
//
// Pair-shaped arrays (edges, sinks, occurrences) are reinterpreted
// in-place over the section buffer where the host layout allows, and
// every other kind is materialized with one bulk allocation, so decoding
// performs no per-edge work beyond validation.
//
// alg must agree with the encoding System's algebra on every annotation
// in the snapshot; with identityOnly set, decoding fails unless every
// annotation is the identity (0) — the skeleton contract that makes the
// base valid under any per-property algebra. opts must equal the options
// the snapshot was solved under.
//
// Validation is exhaustive: every index is range-checked against the
// tables it refers into, so a corrupt-but-checksummed snapshot (or a
// hostile file) yields an error, never a panic or an out-of-bounds
// System. All structural errors wrap snapshot.ErrCorrupt.
func DecodeSystem(r *snapshot.Reader, alg Algebra, opts Options, identityOnly bool) (*System, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: core: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}
	meta, err := r.Uint32s(secMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != 7 {
		return nil, bad("meta section has %d words, want 7", len(meta))
	}
	numVars, numCons := int(meta[0]), int(meta[1])
	if meta[5] != optFlags(opts) || meta[6] != cycleBudget {
		return nil, fmt.Errorf("core: snapshot was solved under different Options (flags %d budget %d, want %d %d)",
			meta[5], meta[6], optFlags(opts), cycleBudget)
	}

	strs, err := snapshot.ReadStrings(r, secStrBlob, secStrOffs)
	if err != nil {
		return nil, err
	}

	checkAnnot := func(a uint32) error {
		if identityOnly && a != 0 {
			return bad("non-identity annotation %d in an identity-only snapshot", a)
		}
		if a > math.MaxInt32 {
			return bad("annotation %d overflows int32", a)
		}
		return nil
	}
	checkVar := func(v uint32) error {
		if int(v) >= numVars {
			return bad("variable %d out of range (%d vars)", v, numVars)
		}
		return nil
	}
	checkCons := func(cn uint32) error {
		if int(cn) >= numCons {
			return bad("cons node %d out of range (%d nodes)", cn, numCons)
		}
		return nil
	}

	// Signature.
	sigCons, err := r.Uint32s(secSigCons)
	if err != nil {
		return nil, err
	}
	variance, err := r.Bytes(secSigVariance)
	if err != nil {
		return nil, err
	}
	if len(sigCons)%2 != 0 {
		return nil, bad("signature section has odd length %d", len(sigCons))
	}
	sig := terms.NewSignature()
	vi := 0
	for i := 0; i < len(sigCons)/2; i++ {
		name, err := strs.At(sigCons[2*i])
		if err != nil {
			return nil, err
		}
		arity := int(sigCons[2*i+1])
		if arity < 0 || vi+arity > len(variance) {
			return nil, bad("constructor %q arity %d overruns variance section", name, arity)
		}
		var vars []terms.Variance
		for j := 0; j < arity; j++ {
			switch variance[vi+j] {
			case byte(terms.Covariant):
			case byte(terms.Contravariant):
				if vars == nil {
					vars = make([]terms.Variance, arity)
				}
			default:
				return nil, bad("constructor %q has invalid variance byte %d", name, variance[vi+j])
			}
			if vars != nil {
				vars[j] = terms.Variance(variance[vi+j])
			}
		}
		id, derr := sig.DeclareVariance(name, arity, vars)
		if derr != nil || int(id) != i {
			return nil, bad("constructor %q is not freshly declarable at slot %d", name, i)
		}
		vi += arity
	}
	if vi != len(variance) {
		return nil, bad("variance section has %d trailing bytes", len(variance)-vi)
	}
	checkSigCons := func(c, idx uint32) error {
		if int(c) >= sig.Size() {
			return bad("constructor id %d out of range (%d declared)", c, sig.Size())
		}
		if int(idx) >= sig.Arity(terms.ConsID(c)) {
			return bad("projection index %d out of range for %s/%d", idx, sig.Name(terms.ConsID(c)), sig.Arity(terms.ConsID(c)))
		}
		return nil
	}

	// Variable headers.
	uf, err := r.Uint32s(secUF)
	if err != nil {
		return nil, err
	}
	if len(uf) != numVars {
		return nil, bad("union-find section has %d entries, want %d", len(uf), numVars)
	}
	vars := make([]varData, numVars)
	for v, u := range uf {
		if err := checkVar(u); err != nil {
			return nil, err
		}
		vars[v].uf = VarID(u)
	}
	for v := range vars {
		if vars[vars[v].uf].uf != vars[v].uf {
			return nil, bad("union-find parent of v%d is not a root", v)
		}
	}

	names, err := r.Uint32s(secVarNames)
	if err != nil {
		return nil, err
	}
	if len(names)%2 != 0 {
		return nil, bad("var-name section has odd length")
	}
	varIndex := make(map[string]VarID, len(names)/2)
	for i := 0; i < len(names); i += 2 {
		if err := checkVar(names[i]); err != nil {
			return nil, err
		}
		name, err := strs.At(names[i+1])
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, bad("v%d has an empty interned name", names[i])
		}
		if _, dup := varIndex[name]; dup {
			return nil, bad("variable name %q interned twice", name)
		}
		vars[names[i]].name = name
		varIndex[name] = VarID(names[i])
	}

	prefixRefs, err := r.Uint32s(secPrefixes)
	if err != nil {
		return nil, err
	}
	freshPrefixes := make([]string, len(prefixRefs))
	prefixIndex := make(map[string]int32, len(prefixRefs))
	for i, ref := range prefixRefs {
		p, err := strs.At(ref)
		if err != nil {
			return nil, err
		}
		if _, dup := prefixIndex[p]; dup {
			return nil, bad("fresh prefix %q interned twice", p)
		}
		freshPrefixes[i] = p
		prefixIndex[p] = int32(i + 1)
	}
	prefixPairs, err := r.Uint32s(secVarPrefixes)
	if err != nil {
		return nil, err
	}
	if len(prefixPairs)%2 != 0 {
		return nil, bad("var-prefix section has odd length")
	}
	for i := 0; i < len(prefixPairs); i += 2 {
		if err := checkVar(prefixPairs[i]); err != nil {
			return nil, err
		}
		idx := prefixPairs[i+1]
		if idx == 0 || int(idx) > len(freshPrefixes) {
			return nil, bad("v%d has prefix index %d out of range (%d prefixes)", prefixPairs[i], idx, len(freshPrefixes))
		}
		vars[prefixPairs[i]].prefix = int32(idx)
	}

	readOffsets := func(id uint32, n int) ([]uint32, error) {
		offs, err := r.Uint32s(id)
		if err != nil {
			return nil, err
		}
		if len(offs) != n+1 || offs[0] != 0 {
			return nil, bad("offsets section %d has %d entries, want %d", id, len(offs), n+1)
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				return nil, bad("offsets section %d is not monotone", id)
			}
		}
		return offs, nil
	}
	readFlat := func(id uint32, total uint32, width int) ([]uint32, error) {
		flat, err := r.Uint32s(id)
		if err != nil {
			return nil, err
		}
		if uint64(len(flat)) != uint64(total)*uint64(width) {
			return nil, bad("flat section %d has %d words, want %d×%d", id, len(flat), total, width)
		}
		return flat, nil
	}

	// Out edges: validate, then view the flat pairs in place (or copy
	// them in one allocation) and hand each variable its clip-capped
	// subslice.
	eoffs, err := readOffsets(secEdgeOffs, numVars)
	if err != nil {
		return nil, err
	}
	eflat, err := readFlat(secEdges, eoffs[numVars], 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(eflat); i += 2 {
		if err := checkVar(eflat[i]); err != nil {
			return nil, err
		}
		if err := checkAnnot(eflat[i+1]); err != nil {
			return nil, err
		}
	}
	edgesAll := aliasPairs[edge](eflat, canAliasEdge, func(to, a uint32) edge {
		return edge{VarID(to), Annot(a)}
	})
	for v := range vars {
		vars[v].out = clip(edgesAll[eoffs[v]:eoffs[v+1]])
		if duplicated(vars[v].out) {
			return nil, bad("duplicate edge at v%d", v)
		}
	}

	soffs, err := readOffsets(secSinkOffs, numVars)
	if err != nil {
		return nil, err
	}
	sflat, err := readFlat(secSinks, soffs[numVars], 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(sflat); i += 2 {
		if err := checkCons(sflat[i]); err != nil {
			return nil, err
		}
		if err := checkAnnot(sflat[i+1]); err != nil {
			return nil, err
		}
	}
	sinksAll := aliasPairs[sinkRef](sflat, canAliasSink, func(cn, a uint32) sinkRef {
		return sinkRef{CNode(cn), Annot(a)}
	})
	for v := range vars {
		vars[v].sinks = clip(sinksAll[soffs[v]:soffs[v+1]])
		if duplicated(vars[v].sinks) {
			return nil, bad("duplicate sink at v%d", v)
		}
	}

	poffs, err := readOffsets(secProjOffs, numVars)
	if err != nil {
		return nil, err
	}
	pflat, err := readFlat(secProjs, poffs[numVars], 4)
	if err != nil {
		return nil, err
	}
	projsAll := make([]projRef, poffs[numVars])
	for i := range projsAll {
		c, idx, to, a := pflat[4*i], pflat[4*i+1], pflat[4*i+2], pflat[4*i+3]
		if err := checkSigCons(c, idx); err != nil {
			return nil, err
		}
		if err := checkVar(to); err != nil {
			return nil, err
		}
		if err := checkAnnot(a); err != nil {
			return nil, err
		}
		projsAll[i] = projRef{terms.ConsID(c), int(idx), VarID(to), Annot(a)}
	}
	for v := range vars {
		vars[v].projs = clip(projsAll[poffs[v]:poffs[v+1]])
		if duplicated(vars[v].projs) {
			return nil, bad("duplicate projection at v%d", v)
		}
	}

	aoffs, err := readOffsets(secArgOffs, numVars)
	if err != nil {
		return nil, err
	}
	aflat, err := readFlat(secArgOf, aoffs[numVars], 2)
	if err != nil {
		return nil, err
	}
	argsAll := make([]argUse, aoffs[numVars])
	for i := range argsAll {
		cn, idx := aflat[2*i], aflat[2*i+1]
		if err := checkCons(cn); err != nil {
			return nil, err
		}
		argsAll[i] = argUse{CNode(cn), int(idx)}
	}
	for v := range vars {
		vars[v].argOf = clip(argsAll[aoffs[v]:aoffs[v+1]])
	}

	// Reach facts, plus a rebuilt hash index per variable: inserting the
	// facts in serialized order into a final-size table reproduces the
	// live probe layout, because the live table's growth path rehashes in
	// fact order too.
	roffs, err := readOffsets(secReachOffs, numVars)
	if err != nil {
		return nil, err
	}
	rflat, err := readFlat(secReach, roffs[numVars], 5)
	if err != nil {
		return nil, err
	}
	factsAll := make([]reachFact, roffs[numVars])
	for i := range factsAll {
		cn, a := rflat[5*i], rflat[5*i+1]
		fromVar := int32(rflat[5*i+2])
		parAnnot, step := rflat[5*i+3], rflat[5*i+4]
		if err := checkCons(cn); err != nil {
			return nil, err
		}
		if err := checkAnnot(a); err != nil {
			return nil, err
		}
		if fromVar != -1 {
			if err := checkVar(uint32(fromVar)); err != nil {
				return nil, err
			}
		}
		if err := checkAnnot(parAnnot); err != nil {
			return nil, err
		}
		if step > uint32(stepMerged) {
			return nil, bad("reach fact has invalid step kind %d", step)
		}
		factsAll[i] = reachFact{CNode(cn), Annot(a),
			parent{VarID(fromVar), Annot(parAnnot), stepKind(step)}}
	}
	var totalSlots int
	for v := range vars {
		totalSlots += reachTableSize(int(roffs[v+1] - roffs[v]))
	}
	slabs := make([]int32, totalSlots)
	slotOff := 0
	for v := range vars {
		facts := clip(factsAll[roffs[v]:roffs[v+1]])
		size := reachTableSize(len(facts))
		table := slabs[slotOff : slotOff+size : slotOff+size]
		slotOff += size
		mask := uint32(size - 1)
		for i := range facts {
			h := reachHash(facts[i].cn, facts[i].a) & mask
			for table[h] != 0 {
				f := &facts[table[h]-1]
				if f.cn == facts[i].cn && f.a == facts[i].a {
					return nil, bad("duplicate reach fact at v%d", v)
				}
				h = (h + 1) & mask
			}
			table[h] = int32(i + 1)
		}
		vars[v].reach = reachSet{facts: facts, table: table}
	}

	// Cons-node table.
	heads, err := r.Uint32s(secConsHeads)
	if err != nil {
		return nil, err
	}
	if len(heads) != numCons {
		return nil, bad("cons-head section has %d entries, want %d", len(heads), numCons)
	}
	caoffs, err := readOffsets(secConsArgOffs, numCons)
	if err != nil {
		return nil, err
	}
	caflat, err := readFlat(secConsArgs, caoffs[numCons], 1)
	if err != nil {
		return nil, err
	}
	cargsAll := make([]VarID, len(caflat))
	for i, a := range caflat {
		if err := checkVar(a); err != nil {
			return nil, err
		}
		cargsAll[i] = VarID(a)
	}
	ooffs, err := readOffsets(secOccurOffs, numCons)
	if err != nil {
		return nil, err
	}
	oflat, err := readFlat(secOccur, ooffs[numCons], 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(oflat); i += 2 {
		if err := checkVar(oflat[i]); err != nil {
			return nil, err
		}
		if err := checkAnnot(oflat[i+1]); err != nil {
			return nil, err
		}
	}
	occurAll := aliasPairs[varAnnot](oflat, canAliasOccur, func(v, a uint32) varAnnot {
		return varAnnot{VarID(v), Annot(a)}
	})
	cons := make([]consData, numCons)
	consIndex := make(map[consKey]CNode)
	if !opts.NoHashCons {
		consIndex = make(map[consKey]CNode, numCons)
	}
	for cn := range cons {
		c := heads[cn]
		if int(c) >= sig.Size() {
			return nil, bad("cons node %d has constructor id %d out of range", cn, c)
		}
		args := clip(cargsAll[caoffs[cn]:caoffs[cn+1]])
		if len(args) != sig.Arity(terms.ConsID(c)) {
			return nil, bad("cons node %d has %d args, %s wants %d", cn, len(args), sig.Name(terms.ConsID(c)), sig.Arity(terms.ConsID(c)))
		}
		cons[cn] = consData{
			cons:  terms.ConsID(c),
			args:  args,
			occur: clip(occurAll[ooffs[cn]:ooffs[cn+1]]),
		}
		if !opts.NoHashCons {
			key := makeConsKey(terms.ConsID(c), args)
			if _, dup := consIndex[key]; dup {
				return nil, bad("cons node %d duplicates an interned expression", cn)
			}
			consIndex[key] = CNode(cn)
		}
	}

	// Raw constraints, in recorded order (PN-reachability and DOT read
	// them directly).
	rawWords, err := r.Uint32s(secRaw)
	if err != nil {
		return nil, err
	}
	if len(rawWords)%7 != 0 {
		return nil, bad("raw section has %d words, not septets", len(rawWords))
	}
	raw := make([]rawConstraint, len(rawWords)/7)
	for i := range raw {
		kind, x, y := rawWords[7*i], rawWords[7*i+1], rawWords[7*i+2]
		cn, c, idx, a := rawWords[7*i+3], rawWords[7*i+4], rawWords[7*i+5], rawWords[7*i+6]
		if err := checkAnnot(a); err != nil {
			return nil, err
		}
		switch rawKind(kind) {
		case rawVarVar:
			if err := checkVar(x); err != nil {
				return nil, err
			}
			if err := checkVar(y); err != nil {
				return nil, err
			}
		case rawLower:
			if err := checkCons(cn); err != nil {
				return nil, err
			}
			if err := checkVar(y); err != nil {
				return nil, err
			}
		case rawUpper:
			if err := checkVar(x); err != nil {
				return nil, err
			}
			if err := checkCons(cn); err != nil {
				return nil, err
			}
		case rawProj:
			if err := checkSigCons(c, idx); err != nil {
				return nil, err
			}
			if err := checkVar(x); err != nil {
				return nil, err
			}
			if err := checkVar(y); err != nil {
				return nil, err
			}
		default:
			return nil, bad("raw constraint %d has invalid kind %d", i, kind)
		}
		raw[i] = rawConstraint{kind: rawKind(kind), x: VarID(x), y: VarID(y),
			cn: CNode(cn), cons: terms.ConsID(c), idx: int(idx), a: Annot(a)}
	}

	clashWords, err := r.Uint32s(secClashes)
	if err != nil {
		return nil, err
	}
	if len(clashWords)%3 != 0 {
		return nil, bad("clash section has %d words, not triples", len(clashWords))
	}
	clashes := make([]Clash, len(clashWords)/3)
	clashSeen := make(map[Clash]struct{}, len(clashes))
	for i := range clashes {
		src, dst, a := clashWords[3*i], clashWords[3*i+1], clashWords[3*i+2]
		if err := checkCons(src); err != nil {
			return nil, err
		}
		if err := checkCons(dst); err != nil {
			return nil, err
		}
		if err := checkAnnot(a); err != nil {
			return nil, err
		}
		clashes[i] = Clash{CNode(src), CNode(dst), Annot(a)}
		clashSeen[clashes[i]] = struct{}{}
	}

	pm, err := r.Uint32s(secProjMerge)
	if err != nil {
		return nil, err
	}
	if len(pm)%4 != 0 {
		return nil, bad("projMerge section has %d words, not quads", len(pm))
	}
	for i := 0; i < len(pm); i += 4 {
		v, c, idx, w := pm[i], pm[i+1], pm[i+2], pm[i+3]
		if err := checkVar(v); err != nil {
			return nil, err
		}
		if err := checkSigCons(c, idx); err != nil {
			return nil, err
		}
		if err := checkVar(w); err != nil {
			return nil, err
		}
		key := projMergeKey{terms.ConsID(c), int(idx)}
		if vars[v].projMerge == nil {
			vars[v].projMerge = make(map[projMergeKey]VarID)
		}
		if _, dup := vars[v].projMerge[key]; dup {
			return nil, bad("v%d has duplicate projMerge key", v)
		}
		vars[v].projMerge[key] = VarID(w)
	}

	return &System{
		Alg:           alg,
		Sig:           sig,
		opts:          opts,
		vars:          vars,
		varIndex:      varIndex,
		cons:          cons,
		consIndex:     consIndex,
		freshPrefixes: freshPrefixes,
		prefixIndex:   prefixIndex,
		clashSeen:     clashSeen,
		work:          make([]workItem, 0, 64),
		clashes:       clashes,
		raw:           raw,
		nEdges:        int(meta[2]),
		nReach:        int(meta[3]),
		nCollapsed:    int(meta[4]),
	}, nil
}

// clip caps a slice at its length, so that appending through it
// reallocates instead of writing into the next window: the decoder hands
// each variable and constructor a window into one shared array.
func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// duplicated reports whether list holds some entry twice. The solver
// keeps every out, sink and projection list duplicate-free; a snapshot
// is outside input, so the decoder checks its lists, through a map since
// a hostile file's list can be arbitrarily long. Most lists hold one
// entry at most and need no map.
func duplicated[T comparable](list []T) bool {
	if len(list) < 2 {
		return false
	}
	seen := make(map[T]bool, len(list))
	for _, x := range list {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// reachTableSize returns the open-addressing table size reachSet.insert
// ends at after n insertions: the smallest power of two ≥ 8 keeping the
// load factor at or under 3/4, or 0 for an empty set.
func reachTableSize(n int) int {
	if n == 0 {
		return 0
	}
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// aliasPairs views a flat (a, b) uint32 array as a []T of two-field
// 32-bit structs. When the host layout matches (checked by the caller
// via the canAlias* guards) the result aliases flat's storage — which on
// little-endian hosts is the snapshot read buffer itself — otherwise
// the pairs are materialized with a single allocation.
func aliasPairs[T any](flat []uint32, canAlias bool, mk func(a, b uint32) T) []T {
	n := len(flat) / 2
	if canAlias && n > 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&flat[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = mk(flat[2*i], flat[2*i+1])
	}
	return out
}
