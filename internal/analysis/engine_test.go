package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// text, JSON and SARIF, with and without -explain, at GOMAXPROCS 1 and
// 8 — byte-identical against a one-shot Analyze over the same sources.
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
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

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
						runtime.GOMAXPROCS(parallel)
						req := CheckRequest{Explain: explain}
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
// engine's counts in its registry and the per-program locking; it also
// asserts every concurrent report matches the single-threaded
// reference byte for byte.
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

// Never-seen edits to one program from several goroutines at once: each
// re-lowering shares CFG nodes with the lowering before it while that
// lowering's jobs may still read them. A -race exercise for that
// sharing; an edit changes only the literal in a function at the end of
// a.go, so every report must equal the first one's.
func TestEngineConcurrentNovelEdits(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	b := gosrc.File{Name: "b.go", Src: engBSrc}
	edit := func(n int) gosrc.File {
		return gosrc.File{Name: "a.go", Src: engASrc + fmt.Sprintf("\nfunc edit() int { return %d }\n", n)}
	}
	seed, err := eng.Check(CheckRequest{Upserts: []gosrc.File{edit(-1), b}, Checkers: []string{"doublelock"}})
	if err != nil {
		t.Fatal(err)
	}
	want := findingsJSON(t, seed)
	const workers = 4
	const iters = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := edit(w*iters + i)
				rep, err := eng.Check(CheckRequest{Upserts: []gosrc.File{a, b}, Checkers: []string{"doublelock"}})
				if err != nil {
					t.Error(err)
					return
				}
				if got := findingsJSON(t, rep); got != want {
					t.Errorf("worker %d edit %d: report diverged:\ngot:  %s\nwant: %s", w, i, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// A job whose key keeps hitting stays in memory however many novel
// records pass through a small memory tier: Other's summary never
// changes while every request edits leaf, so Other's job must hit on
// every request. 24 edits fill and drop each generation of 8 more than
// once.
func TestEngineMemoryKeepsHotKeys(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	eng.mem.gen = 8
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
	eng := NewEngine(EngineConfig{})
	eng.mem.gen = bound
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

// The engine's counts live in its registry: Stats reads the instruments
// the registry exports, and they are the sums of the requests' own
// counts. The edit sequence runs over two programs, a disk cache filled
// by a one-shot run, a bad delta, an eviction and a request against the
// evicted program. An engine without a registry of its own reports the
// same Stats.
func TestEngineMemoCountersMatchRequests(t *testing.T) {
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	fix := []gosrc.File{{Name: "a.go", Src: strings.Replace(engASrc, "mu.Lock() // BUG", "mu.Unlock()", 1)}}
	bad := []gosrc.File{{Name: "a.go", Src: "package p\nfunc broken( {"}}
	pkg, err := LoadFiles(full)
	if err != nil {
		t.Fatal(err)
	}
	// p1 holding two file sets and p2 one do not fit; p1 and p2 holding
	// one each do.
	budget := estimateCost(pkg) * 5 / 2
	steps := []CheckRequest{
		{Program: "p1", Upserts: full},
		{Program: "p1", Upserts: fix},
		{Program: "p1", Upserts: bad},
		{Program: "p1"},
		{Program: "p2", Upserts: full},
		{Program: "p1"},
		{Program: "p1", Upserts: full},
	}
	run := func(reg *obs.Registry) (st, sums EngineStats) {
		cache, err := OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(pkg, Config{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(EngineConfig{Cache: cache, MemoryBudget: budget, Metrics: reg})
		for _, req := range steps {
			sums.Requests++
			rep, err := eng.Check(req)
			if err != nil {
				sums.Errors++
				continue
			}
			sums.MemoHits += rep.MemoHits
			sums.MemoMisses += rep.MemoMisses
			sums.CacheHits += int64(rep.Cache.Hits)
			sums.CacheMisses += int64(rep.Cache.Misses)
			sums.ResolvedFuncs += int64(rep.Cache.ResolvedFunctions)
		}
		return eng.Stats(), sums
	}

	reg := obs.NewRegistry()
	st, sums := run(reg)
	if sums.Errors != 2 || sums.MemoHits == 0 || sums.MemoMisses == 0 || sums.CacheHits == 0 ||
		sums.CacheMisses == 0 || sums.ResolvedFuncs == 0 || st.Evictions == 0 {
		t.Fatalf("the sequence leaves a count at zero: stats %+v, request sums %+v", st, sums)
	}
	sums.Evictions, sums.ResidentPrograms, sums.MemoEntries = st.Evictions, 2, st.MemoEntries
	if st != sums {
		t.Errorf("engine stats %+v, requests sum to %+v", st, sums)
	}
	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"server.requests", snap.Counters["server.requests"], st.Requests},
		{"server.errors", snap.Counters["server.errors"], st.Errors},
		{"server.evictions", snap.Counters["server.evictions"], st.Evictions},
		{"server.resident_programs", snap.Gauges["server.resident_programs"], int64(st.ResidentPrograms)},
		{"server.memo_hits", snap.Counters["server.memo_hits"], st.MemoHits},
		{"server.memo_misses", snap.Counters["server.memo_misses"], st.MemoMisses},
		{"cache.hits", snap.Counters["cache.hits"], st.CacheHits},
		{"cache.misses", snap.Counters["cache.misses"], st.CacheMisses},
		{"cache.resolved_functions", snap.Counters["cache.resolved_functions"], st.ResolvedFuncs},
	} {
		if c.got != c.want {
			t.Errorf("registry %s = %d, engine stats say %d", c.name, c.got, c.want)
		}
	}
	if own, _ := run(nil); own != st {
		t.Errorf("engine without a registry: stats %+v, want %+v", own, st)
	}
}

// A file set the program has been at before moves back to the front of
// its lowered sets instead of re-lowering. States A, B and C add a file
// outside every entry's closure with three bodies, over the seed set S.
// C's arrival drops S, the oldest of four sets; the returns to A and B
// re-lower nothing, and a return to S re-lowers it. Every request
// misses no job and returns the seed push's findings byte for byte.
func TestEngineRingSwapsSeenFileSetsBackIn(t *testing.T) {
	in := driverCorpus()
	pkg, err := LoadFiles(in)
	if err != nil {
		t.Fatal(err)
	}
	entries := pkg.Roots()
	reg := obs.NewRegistry()
	eng := NewEngine(EngineConfig{Metrics: reg})
	seed := seedPush(t, eng, in, entries)
	relowers := obs.NewServerMetrics(reg).RelowerMs
	to := func(body int) CheckRequest {
		return CheckRequest{Upserts: []gosrc.File{tickFile(body)}, Entries: entries}
	}
	for _, st := range []struct {
		name     string
		req      CheckRequest
		relowers int64
	}{
		{"A", to(1), 2},
		{"B", to(2), 3},
		{"C", to(3), 4},
		{"back to A", to(1), 4},
		{"back to B", to(2), 4},
		{"back to S", CheckRequest{Removes: []string{tickFile(0).Name}, Entries: entries}, 5},
	} {
		rep, err := eng.Check(st.req)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got, err := json.Marshal(rep.Diagnostics); err != nil || !bytes.Equal(got, seed) {
			t.Fatalf("%s changed the findings (%v)", st.name, err)
		}
		if rep.MemoMisses != 0 {
			t.Errorf("%s missed %d job(s)", st.name, rep.MemoMisses)
		}
		if n := relowers.Count(); n != st.relowers {
			t.Errorf("%s: %d re-lowerings in all, want %d", st.name, n, st.relowers)
		}
	}
}

// A request that re-lowers records the translate and ir.lower spans a
// one-shot -trace-out run records, in its flight trace; one that finds
// its file set resident records neither.
func TestEngineFlightTraceShowsRelowering(t *testing.T) {
	flight := obs.NewFlight(obs.FlightConfig{})
	eng := NewEngine(EngineConfig{Flight: flight})
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	fix := []gosrc.File{{Name: "a.go", Src: strings.Replace(engASrc, "mu.Lock() // BUG", "mu.Unlock()", 1)}}
	for _, st := range []struct {
		name    string
		req     CheckRequest
		relower bool
	}{
		{"seed push", CheckRequest{Upserts: full}, true},
		{"edit", CheckRequest{Upserts: fix}, true},
		{"re-check", CheckRequest{}, false},
		{"undo", CheckRequest{Upserts: full[:1]}, false},
	} {
		rep, err := eng.Check(st.req)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		var buf bytes.Buffer
		if err := flight.WriteChrome(&buf, rep.TraceID); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		spans := map[string]int{}
		for _, ev := range trace.TraceEvents {
			spans[ev.Name]++
		}
		want := 0
		if st.relower {
			want = 1
		}
		for _, name := range []string{"translate", "ir.lower"} {
			if spans[name] != want {
				t.Errorf("%s: %d %s span(s), want %d (spans %v)", st.name, spans[name], name, want, spans)
			}
		}
	}
}

// However many never-seen edits a resident program takes, it keeps only
// its current file set and maxRecentLowered displaced ones reachable:
// every other Package it lowered is garbage.
func TestEngineKeepsBoundedLoweredSets(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	var live atomic.Int64
	for i := 0; i < 12; i++ {
		src := engASrc + fmt.Sprintf("\nfunc edit() int { return %d }\n", i)
		req := CheckRequest{Upserts: []gosrc.File{{Name: "a.go", Src: src}}, Checkers: []string{"doublelock"}}
		if _, err := eng.Check(req); err != nil {
			t.Fatal(err)
		}
		eng.mu.Lock()
		rp := eng.progs["default"]
		eng.mu.Unlock()
		rp.mu.Lock()
		pkg := rp.current().pkg
		rp.mu.Unlock()
		live.Add(1)
		runtime.SetFinalizer(pkg, func(*Package) { live.Add(-1) })
	}
	want := int64(1 + maxRecentLowered)
	for i := 0; i < 50 && live.Load() > want; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := live.Load(); n < 1 || n > want {
		t.Fatalf("%d Packages reachable after 12 never-seen edits, want 1 to %d", n, want)
	}
	runtime.KeepAlive(eng) // the engine holds the program's sets until here
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
	rep, err := eng.Check(CheckRequest{Program: "p1", Upserts: full, Checkers: []string{"doublelock"}})
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

// A request's checker list resolves as gocheck's -checkers list does: a
// repeated or spaced name selects its checker once, "all" selects the
// full registry, and an unknown name fails with the known names. Each
// selection gives the report of the plain one.
func TestEngineCheckerSelections(t *testing.T) {
	full := []gosrc.File{{Name: "a.go", Src: engASrc}, {Name: "b.go", Src: engBSrc}}
	report := func(names []string) string {
		t.Helper()
		rep, err := NewEngine(EngineConfig{}).Check(CheckRequest{Upserts: full, Checkers: names})
		if err != nil {
			t.Fatalf("%q: %v", names, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	single, registry := report([]string{"doublelock"}), report(nil)
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"doublelock", "doublelock"}, single},
		{[]string{" doublelock"}, single},
		{[]string{"doublelock ", " doublelock"}, single},
		{[]string{"all"}, registry},
	} {
		if got := report(tc.names); got != tc.want {
			t.Errorf("%q gives\n%s\nwant\n%s", tc.names, got, tc.want)
		}
	}
	_, err := NewEngine(EngineConfig{}).Check(CheckRequest{Upserts: full, Checkers: []string{"nosuch"}})
	if err == nil || !strings.Contains(err.Error(), "doublelock") {
		t.Errorf("unknown checker: err = %v, want the known names listed", err)
	}
}

// TestEngineStatsJSONSchema pins the EngineStats wire names the metrics
// endpoint serves.
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
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("EngineStats JSON lacks %q (got %s)", key, b)
		}
	}
}

// A metrics scrape never waits for a program's re-lower: with one
// program's mu held, as a re-lower holds it through translation and
// lowering, Programs and a check against another program both return.
func TestProgramsDoesNotWaitForARelower(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	for _, name := range []string{"busy", "other"} {
		if _, err := eng.Check(CheckRequest{Program: name, Upserts: []gosrc.File{{Name: "a.go", Src: engASrc}}, Checkers: []string{"doublelock"}}); err != nil {
			t.Fatal(err)
		}
	}
	busy := eng.program("busy")
	busy.mu.Lock()
	defer busy.mu.Unlock()

	scraped := make(chan []ProgramInfo, 1)
	go func() { scraped <- eng.Programs() }()
	checked := make(chan error, 1)
	go func() {
		_, err := eng.Check(CheckRequest{Program: "other", Checkers: []string{"doublelock"}})
		checked <- err
	}()
	timeout := time.After(10 * time.Second)
	select {
	case infos := <-scraped:
		if len(infos) != 2 || infos[0].Name != "busy" || infos[0].Files != 1 || infos[0].Functions == 0 {
			t.Errorf("Programs() = %+v, want both programs with busy's sizes", infos)
		}
	case <-timeout:
		t.Fatal("Programs() waits for a busy program's mu")
	}
	select {
	case err := <-checked:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeout:
		t.Fatal("a check against another program waits behind the scrape")
	}
}

// Programs reports the file set a program holds: a request whose delta
// commits but whose analysis then fails still moves its sizes.
func TestProgramsReportsTheCommittedSet(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	if _, err := eng.Check(CheckRequest{Program: "p", Upserts: []gosrc.File{{Name: "a.go", Src: engASrc}}, Checkers: []string{"doublelock"}}); err != nil {
		t.Fatal(err)
	}
	req := CheckRequest{Program: "p", Upserts: []gosrc.File{{Name: "b.go", Src: engBSrc}}, Checkers: []string{"doublelock"}, Entries: []string{"NoSuchEntry"}}
	if _, err := eng.Check(req); err == nil {
		t.Fatal("a check of an unknown entry succeeded")
	}
	if n := len(eng.Manifest("p")); n != 2 {
		t.Fatalf("Manifest holds %d files, want 2: the delta did not commit", n)
	}
	if infos := eng.Programs(); len(infos) != 1 || infos[0].Files != 2 || infos[0].Functions != 5 {
		t.Fatalf("Programs() = %+v, want p's two files and five functions", infos)
	}
}
