package analysis

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rasc/internal/gosrc"
	"rasc/internal/obs"
)

// Two-file corpus: a.go holds a double-lock bug under Top, b.go a clean
// tree under Other, so edits can dirty either tree independently.
const engASrc = `package p

import "sync"

var mu sync.Mutex

func Top() { mid() }

func mid() { leaf() }

func leaf() {
	mu.Lock()
	mu.Lock() // BUG
}
`

const engBSrc = `package p

import "sync"

var mu2 sync.Mutex

func Other() { ok() }

func ok() {
	mu2.Lock()
	mu2.Unlock()
}
`

const engCSrc = `package p

func Third() { ok() }
`

// sortedFiles returns the file map as a name-sorted slice, the order
// both LoadPaths and the engine analyze in.
func sortedFiles(m map[string]string) []gosrc.File {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	// insertion sort; the corpus is tiny
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	files := make([]gosrc.File, len(names))
	for i, n := range names {
		files[i] = gosrc.File{Name: n, Src: m[n]}
	}
	return files
}

// TestEngineDifferentialEditSequence drives a sequence of file deltas
// through one warm Engine and checks every step's report — rendered as
// text, JSON and SARIF, with and without -explain, at -parallel 1 and 8
// — byte-identical against a one-shot Analyze over the same sources.
//
// Run twice. Memory-only: the reference is a completely fresh one-shot,
// so the engine's memo and incremental re-lowering must be invisible.
// Disk-backed: the reference one-shot shares the engine's cache dir
// (running after it, fully warm), pinning the cross-layer contract that
// records the engine stores satisfy one-shot runs byte-for-byte and
// vice versa — the same guarantee the cache layer itself makes between
// two one-shot processes.
func TestEngineDifferentialEditSequence(t *testing.T) {
	type step struct {
		name    string
		upserts map[string]string
		removes []string
	}
	steps := []step{
		{name: "initial", upserts: map[string]string{"a.go": engASrc, "b.go": engBSrc}},
		{name: "fix-a", upserts: map[string]string{
			"a.go": strings.Replace(engASrc, "mu.Lock() // BUG", "mu.Unlock()", 1)}},
		{name: "break-b", upserts: map[string]string{
			"b.go": strings.Replace(engBSrc, "mu2.Unlock()", "mu2.Lock()", 1)}},
		{name: "add-c", upserts: map[string]string{"c.go": engCSrc}},
		{name: "remove-c", removes: []string{"c.go"}},
		{name: "restore-a-bug", upserts: map[string]string{"a.go": engASrc}},
	}

	for _, mode := range []string{"nocache", "diskcache"} {
		t.Run(mode, func(t *testing.T) {
			var cache *Cache
			if mode == "diskcache" {
				var err error
				if cache, err = OpenCache(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			eng := NewEngine(EngineConfig{Cache: cache})
			current := map[string]string{}

			for _, st := range steps {
				// Apply the delta locally to know the full set for the
				// fresh one-shot reference.
				for _, rm := range st.removes {
					delete(current, rm)
				}
				for name, src := range st.upserts {
					current[name] = src
				}

				first := true
				for _, parallel := range []int{1, 8} {
					for _, explain := range []bool{false, true} {
						req := CheckRequest{Parallel: parallel, Explain: explain}
						if first {
							// Only the first request of the step carries the
							// delta; the rest re-check the resident snapshot.
							for name, src := range st.upserts {
								req.Upserts = append(req.Upserts, gosrc.File{Name: name, Src: src})
							}
							req.Removes = st.removes
							first = false
						}
						got, err := eng.Check(req)
						if err != nil {
							t.Fatalf("%s: engine check: %v", st.name, err)
						}

						pkg, err := LoadFiles(sortedFiles(current))
						if err != nil {
							t.Fatal(err)
						}
						want, err := Analyze(pkg, Config{Parallel: parallel, Explain: explain, Cache: cache})
						if err != nil {
							t.Fatalf("%s: one-shot: %v", st.name, err)
						}
						label := st.name
						if explain {
							label += "/explain"
						}
						if parallel == 8 {
							label += "/par8"
						}
						if g, w := renderAll(t, got), renderAll(t, want); g != w {
							t.Errorf("%s: engine output differs from one-shot:\nengine:\n%s\none-shot:\n%s", label, g, w)
						}
					}
				}
			}

			es := eng.Stats()
			if es.Requests != int64(len(steps)*4) {
				t.Fatalf("engine served %d requests, want %d", es.Requests, len(steps)*4)
			}
			if es.Errors != 0 {
				t.Fatalf("engine recorded %d errors", es.Errors)
			}
			// The repeat requests inside each step must replay from the
			// in-memory memo, not re-solve.
			if es.MemoHits == 0 {
				t.Fatal("warm repeat requests never hit the job memo")
			}
		})
	}
}

// TestEngineConcurrentRequests hammers one Engine (shared disk cache,
// shared metrics registry) from many goroutines mixing check, explain,
// multi-program and stats traffic. Primarily a -race exercise for the
// engine's atomic accounting (CacheStats merging) and the per-program
// locking; it also asserts every concurrent report matches the
// single-threaded reference byte for byte.
func TestEngineConcurrentRequests(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Cache: cache, Metrics: obs.NewRegistry()})

	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	seed, err := eng.Check(CheckRequest{Upserts: full, Checkers: []string{"doublelock"}})
	if err != nil {
		t.Fatal(err)
	}
	wantPlain := findingsJSON(t, seed)
	seedEx, err := eng.Check(CheckRequest{Checkers: []string{"doublelock"}, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	wantExplain := findingsJSON(t, seedEx)

	const workers = 16
	const iters = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := CheckRequest{Checkers: []string{"doublelock"}}
				want := wantPlain
				switch w % 4 {
				case 1:
					req.Explain = true
					want = wantExplain
				case 2:
					// A second resident program exercises create/evict paths
					// and cross-program cache sharing.
					req.Program = "alt"
					req.Upserts = full
					req.Reset = true
				case 3:
					// Stats and Programs must be callable mid-flight.
					eng.Stats()
					eng.Programs()
				}
				rep, err := eng.Check(req)
				if err != nil {
					errc <- err
					continue
				}
				if got := findingsJSON(t, rep); got != want {
					t.Errorf("worker %d iter %d: report diverged:\ngot:  %s\nwant: %s", w, i, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := eng.Stats()
	wantReqs := int64(2 + workers*iters)
	if st.Requests != wantReqs {
		t.Fatalf("requests = %d, want %d", st.Requests, wantReqs)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d, want 0", st.Errors)
	}
	// Every warm request replays; the engine-wide accumulation must have
	// seen traffic from both the memo and the per-request sessions.
	if st.MemoHits == 0 && st.CacheHits == 0 {
		t.Fatal("no hit traffic recorded across concurrent requests")
	}
}

// A job whose key keeps hitting stays in memory however many novel
// records pass through a small memory tier: Other's summary never
// changes while every request edits leaf, so Other's job must hit on
// every request. 24 edits fill and drop each generation of 8 more than
// once.
func TestEngineMemoryKeepsHotKeys(t *testing.T) {
	eng := NewEngine(EngineConfig{MemoEntries: 8})
	req := func(src string) *Report {
		t.Helper()
		rep, err := eng.Check(CheckRequest{Upserts: []gosrc.File{{Name: "c.go", Src: src}}, Checkers: []string{"doublelock"}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	req(cacheSrc)
	for i := 0; i < 24; i++ {
		rep := req(strings.Replace(cacheSrc, "mu.Lock() // BUG", fmt.Sprintf("mu.Lock(); work(%d)", i), 1))
		if rep.MemoHits != 1 || rep.MemoMisses != 1 {
			t.Fatalf("edit %d: memo hits=%d misses=%d, want Other's job to hit and Top's to miss",
				i, rep.MemoHits, rep.MemoMisses)
		}
	}
	if n := eng.Stats().MemoEntries; n > 2*8 {
		t.Fatalf("memory tier holds %d records, want at most two generations of 8", n)
	}
}

// Every job of a request that repeats stays in memory as long as the
// jobs fit the bound, even when they need more than half of it: here
// they fill between half and all of it, and every repeat of the request
// must hit memory on every job.
func TestEngineMemoryHoldsRepeatedRequestUpToBound(t *testing.T) {
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	probe, err := NewEngine(EngineConfig{}).Check(CheckRequest{Upserts: full})
	if err != nil {
		t.Fatal(err)
	}
	jobs := probe.MemoMisses
	bound := int(jobs + jobs/2)
	if jobs < 4 || 2*jobs <= int64(bound) {
		t.Fatalf("%d jobs do not lie between half and all of the bound %d", jobs, bound)
	}
	eng := NewEngine(EngineConfig{MemoEntries: bound})
	for i := 0; i < 4; i++ {
		rep, err := eng.Check(CheckRequest{Upserts: full})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (rep.MemoHits != jobs || rep.MemoMisses != 0) {
			t.Fatalf("repeat %d: memo hits=%d misses=%d, want all %d jobs to hit",
				i, rep.MemoHits, rep.MemoMisses, jobs)
		}
	}
}

// The engine's memo counters are the sums of its requests' counters.
func TestEngineMemoCountersMatchRequests(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Cache: cache})
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	fix := []gosrc.File{{Name: "a.go", Src: strings.Replace(engASrc, "mu.Lock() // BUG", "mu.Unlock()", 1)}}
	var hits, misses int64
	for _, req := range []CheckRequest{{Upserts: full}, {Upserts: fix}, {}} {
		rep, err := eng.Check(req)
		if err != nil {
			t.Fatal(err)
		}
		hits += rep.MemoHits
		misses += rep.MemoMisses
	}
	if st := eng.Stats(); st.MemoHits != hits || st.MemoMisses != misses || hits == 0 || misses == 0 {
		t.Fatalf("engine memo hits/misses %d/%d, requests sum to %d/%d", st.MemoHits, st.MemoMisses, hits, misses)
	}
}

// TestEngineEviction caps the memory budget below two resident
// programs, checks three, and expects LRU eviction plus a correct
// re-check of an evicted program once its full set is pushed again.
func TestEngineEviction(t *testing.T) {
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	pkg, err := LoadFiles(full)
	if err != nil {
		t.Fatal(err)
	}
	budget := estimateCost(pkg) + estimateCost(pkg)/2 // fits one, not two
	eng := NewEngine(EngineConfig{MemoryBudget: budget})

	for _, name := range []string{"p1", "p2", "p3"} {
		if _, err := eng.Check(CheckRequest{Program: name, Upserts: full, Checkers: []string{"doublelock"}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st := eng.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under budget %d: %+v", budget, st)
	}
	if st.ResidentPrograms >= 3 {
		t.Fatalf("all programs still resident: %+v", st)
	}

	// A delta-only request against the evicted program must fail loudly
	// (its file set is gone) ...
	if _, err := eng.Check(CheckRequest{Program: "p1", Checkers: []string{"doublelock"}}); err == nil {
		t.Fatal("delta request against an evicted program succeeded")
	}
	// ... and a full re-push must answer correctly again.
	rep, err := eng.Check(CheckRequest{Program: "p1", Upserts: full, Reset: true, Checkers: []string{"doublelock"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Checker != "doublelock" {
		t.Fatalf("re-pushed program reported %+v", rep.Diagnostics)
	}
}

// TestEngineBadDeltaDoesNotPoison: a delta that fails to parse returns
// an error and leaves the resident snapshot untouched; subsequent
// requests keep answering from the last good state.
func TestEngineBadDeltaDoesNotPoison(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	good, err := eng.Check(CheckRequest{Upserts: full, Checkers: []string{"doublelock"}})
	if err != nil {
		t.Fatal(err)
	}
	want := findingsJSON(t, good)

	if _, err := eng.Check(CheckRequest{
		Upserts:  []gosrc.File{{Name: "a.go", Src: "package p\nfunc broken( {"}},
		Checkers: []string{"doublelock"},
	}); err == nil {
		t.Fatal("parse-error delta did not fail")
	}

	rep, err := eng.Check(CheckRequest{Checkers: []string{"doublelock"}})
	if err != nil {
		t.Fatalf("re-check after failed delta: %v", err)
	}
	if got := findingsJSON(t, rep); got != want {
		t.Fatalf("failed delta poisoned the resident state:\ngot:  %s\nwant: %s", got, want)
	}

	st := eng.Stats()
	if st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

// TestEngineUnknownChecker: name resolution fails before any state
// mutates.
func TestEngineUnknownChecker(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	_, err := eng.Check(CheckRequest{
		Upserts:  []gosrc.File{{Name: "a.go", Src: engASrc}},
		Checkers: []string{"nosuchchecker"},
	})
	if err == nil || !strings.Contains(err.Error(), "nosuchchecker") {
		t.Fatalf("err = %v, want unknown-checker error", err)
	}
	// Whether or not a program record exists after the failed request,
	// none may hold an analyzed snapshot.
	for _, p := range eng.Programs() {
		if p.Files != 0 {
			t.Fatalf("failed request left an analyzed snapshot: %+v", eng.Programs())
		}
	}
}

// TestEngineStatsJSONSchema pins the EngineStats wire names the metrics
// endpoint and obslint depend on.
func TestEngineStatsJSONSchema(t *testing.T) {
	b, err := json.Marshal(EngineStats{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "errors", "evictions", "resident_programs",
		"memo_hits", "memo_misses", "memo_entries",
		"cache_hits", "cache_misses", "resolved_functions",
		"skeleton_hits", "skeleton_misses",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("EngineStats JSON lacks %q (got %s)", key, b)
		}
	}
}
