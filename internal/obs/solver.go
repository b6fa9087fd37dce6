package obs

// Hook bundles: each groups the instruments one subsystem feeds, so the
// subsystem gates all of its instrumentation on a single pointer test.
// The bundles are built from a Registry (NewSolverMetrics and friends)
// and hold interned instruments; constructing the same bundle from the
// same registry twice returns instruments that share state.

// SolverMetrics is fed by internal/core's bidirectional solver.
type SolverMetrics struct {
	// WorklistPushes counts work items scheduled (addReach insertions
	// that enqueued rule application).
	WorklistPushes *Counter
	// WorklistHigh is the work queue's high-water mark.
	WorklistHigh *Gauge
	// EdgesAdded counts transitive-edge insertions that survived dedup.
	EdgesAdded *Counter
	// CycleElims counts variables eliminated by online cycle collapsing
	// (union operations).
	CycleElims *Counter
	// ReachInserts counts distinct derived (source, annotation) facts.
	ReachInserts *Counter
	// Compositions counts annotation compositions (monoid/substitution
	// composition-table hits) performed on the solver's hot paths.
	Compositions *Counter
	// Clashes counts manifest inconsistencies recorded.
	Clashes *Counter
	// ReachSetSize is the distribution of per-variable reach-set sizes,
	// sampled once per solved system (System.FlushSizeMetrics).
	ReachSetSize *Histogram
}

// NewSolverMetrics interns the solver bundle in r. Nil-safe: a nil
// registry yields a bundle of nil (no-op) instruments — callers should
// instead pass a nil *SolverMetrics to keep the disabled path on the
// single-branch fast path.
func NewSolverMetrics(r *Registry) *SolverMetrics {
	return &SolverMetrics{
		WorklistPushes: r.Counter("solver.worklist_pushes"),
		WorklistHigh:   r.Gauge("solver.worklist_high_water"),
		EdgesAdded:     r.Counter("solver.edges_added"),
		CycleElims:     r.Counter("solver.cycle_eliminations"),
		ReachInserts:   r.Counter("solver.reach_inserts"),
		Compositions:   r.Counter("solver.compositions"),
		Clashes:        r.Counter("solver.clashes"),
		ReachSetSize:   r.Histogram("solver.reach_set_size", DefaultSizeBounds),
	}
}

// PDMMetrics is fed by internal/pdm's two-phase skeleton layer.
type PDMMetrics struct {
	// SkeletonBuilds counts property-independent skeleton builds.
	SkeletonBuilds *Counter
	// SkeletonForks counts copy-on-write forks layered on a skeleton
	// (one per property × entry check).
	SkeletonForks *Counter
	// LayeredEvents counts property-event edges added by forks (the
	// annotation layers of the per-property phase).
	LayeredEvents *Counter
	// PrunedEvents counts matched events layered as identity edges
	// because their label can never reach an accept state (per-label
	// viability pruning of parametric properties).
	PrunedEvents *Counter
	// DeferredStmts counts statements whose classification was deferred
	// to the per-property phase, summed over built skeletons.
	DeferredStmts *Counter
}

// NewPDMMetrics interns the skeleton-layer bundle in r.
func NewPDMMetrics(r *Registry) *PDMMetrics {
	return &PDMMetrics{
		SkeletonBuilds: r.Counter("pdm.skeleton_builds"),
		SkeletonForks:  r.Counter("pdm.skeleton_forks"),
		LayeredEvents:  r.Counter("pdm.layered_events"),
		PrunedEvents:   r.Counter("pdm.pruned_events"),
		DeferredStmts:  r.Counter("pdm.deferred_stmts"),
	}
}

// SpecMetrics is fed by the analysis driver once per run from the
// compiled counting (bounded-counter) properties of the selected
// checkers; regular properties contribute nothing.
type SpecMetrics struct {
	// CountingCheckers counts selected checkers with a counting property.
	CountingCheckers *Counter
	// CounterMonoidSize is the largest |F_M^≡| among counting properties.
	CounterMonoidSize *Gauge
	// CounterStates is the largest counter-expanded machine (state count)
	// among counting properties.
	CounterStates *Gauge
	// SaturatingEdges sums the tracker transitions that clamp an exact
	// counter value into its saturated ≥k state — the points where the
	// bounded abstraction loses information.
	SaturatingEdges *Counter
	// Relations counts the declared counter-pair relations across
	// selected counting properties.
	Relations *Counter
	// RelationStates is the largest per-property relation-tracker state
	// total among the selected properties.
	RelationStates *Gauge
	// RelationSaturations sums the relation-tracker transitions that
	// leave the declared band for a sticky out-of-band state.
	RelationSaturations *Counter
}

// NewSpecMetrics interns the counting-spec bundle in r.
func NewSpecMetrics(r *Registry) *SpecMetrics {
	return &SpecMetrics{
		CountingCheckers:    r.Counter("spec.counting_checkers"),
		CounterMonoidSize:   r.Gauge("spec.counter_monoid_size"),
		CounterStates:       r.Gauge("spec.counter_states"),
		SaturatingEdges:     r.Counter("spec.counter_saturating_edges"),
		Relations:           r.Counter("spec.relations"),
		RelationStates:      r.Gauge("spec.relation_states"),
		RelationSaturations: r.Counter("spec.relation_saturations"),
	}
}

// CacheMetrics is fed by the analysis driver's incremental result
// cache.
type CacheMetrics struct {
	// Hits and Misses count content-key lookups.
	Hits   *Counter
	Misses *Counter
	// Corrupt counts record files discarded by a decode or
	// integrity-check failure; VersionSkew counts record files skipped
	// for a format-version mismatch. The lookups they fail count as
	// Misses.
	Corrupt     *Counter
	VersionSkew *Counter
	// Stores counts records written.
	Stores *Counter
}

// NewCacheMetrics interns the cache bundle in r.
func NewCacheMetrics(r *Registry) *CacheMetrics {
	return &CacheMetrics{
		Hits:        r.Counter("cache.hits"),
		Misses:      r.Counter("cache.misses"),
		Corrupt:     r.Counter("cache.corrupt"),
		VersionSkew: r.Counter("cache.version_skew"),
		Stores:      r.Counter("cache.stores"),
	}
}

// SnapshotMetrics is fed by the analysis driver's skeleton snapshot
// cache (frozen solved constraint graphs serialized for instant cold
// starts).
type SnapshotMetrics struct {
	// Hits counts skeletons reconstructed from a snapshot; Misses counts
	// lookups that fell back to a live build (absent, corrupt or skewed
	// snapshot). These are separate from cache.hits/cache.misses, which
	// count result-record lookups.
	Hits   *Counter
	Misses *Counter
	// Corrupt counts snapshots discarded by integrity or structural
	// validation; VersionSkew counts snapshots skipped for a container
	// format-version mismatch. Both also count as Misses.
	Corrupt     *Counter
	VersionSkew *Counter
	// Stores counts snapshots written; Bytes sums the snapshot sizes
	// moved in either direction (encoded on store, decoded on hit).
	Stores *Counter
	Bytes  *Counter
	// EncodeMs and DecodeMs are the per-snapshot encode/decode wall-time
	// distributions in milliseconds.
	EncodeMs *Histogram
	DecodeMs *Histogram
}

// NewSnapshotMetrics interns the skeleton-snapshot bundle in r.
func NewSnapshotMetrics(r *Registry) *SnapshotMetrics {
	return &SnapshotMetrics{
		Hits:        r.Counter("snapshot.hits"),
		Misses:      r.Counter("snapshot.misses"),
		Corrupt:     r.Counter("snapshot.corrupt"),
		VersionSkew: r.Counter("snapshot.version_skew"),
		Stores:      r.Counter("snapshot.stores"),
		Bytes:       r.Counter("snapshot.bytes"),
		EncodeMs:    r.Histogram("snapshot.encode_ms", DefaultSizeBounds),
		DecodeMs:    r.Histogram("snapshot.decode_ms", DefaultSizeBounds),
	}
}

// DriverMetrics is fed by the analysis driver itself.
type DriverMetrics struct {
	// Jobs counts (checker × entry) jobs executed (cached or solved);
	// JobsSolved counts the subset that ran a solver or model query.
	Jobs       *Counter
	JobsSolved *Counter
	// Diagnostics counts post-merge, post-suppression findings.
	Diagnostics *Counter
}

// NewDriverMetrics interns the driver bundle in r.
func NewDriverMetrics(r *Registry) *DriverMetrics {
	return &DriverMetrics{
		Jobs:        r.Counter("driver.jobs"),
		JobsSolved:  r.Counter("driver.jobs_solved"),
		Diagnostics: r.Counter("driver.diagnostics"),
	}
}
