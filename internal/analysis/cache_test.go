package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rasc/internal/gosrc"
	"rasc/internal/obs"
	"rasc/internal/pdm"
)

// cacheSrc: Top -> mid -> leaf (double lock) and Other -> ok (clean),
// two disjoint call trees so an edit in one must not re-solve the other.
const cacheSrc = `package p

import "sync"

var mu sync.Mutex

func Top() { mid() }

func mid() { leaf() }

func leaf() {
	mu.Lock()
	mu.Lock() // BUG
}

func Other() { ok() }

func ok() {
	mu.Lock()
	mu.Unlock()
}
`

func analyzeCached(t *testing.T, dir, src string) *Report {
	t.Helper()
	pkg, err := LoadFiles([]gosrc.File{{Name: "c.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := Get("doublelock")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{dl}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil {
		t.Fatal("cached run reported no CacheStats")
	}
	return rep
}

func findingsJSON(t *testing.T, rep *Report) string {
	t.Helper()
	shadow := *rep
	shadow.Cache = nil
	b, err := json.Marshal(&shadow)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A panic in a job becomes the run's error, naming the checker and the
// entry, and is stored in neither tier of the result store: a second
// run over the same memory tier and disk cache computes the job again
// and fails the same way, while the sound job beside it is served.
func TestJobPanicBecomesError(t *testing.T) {
	pkg, err := LoadFiles([]gosrc.File{{Name: "c.go", Src: cacheSrc}})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := Get("doublelock")
	boom := &Checker{Name: "boom", Run: func(*Package, *Checker, string) []Diagnostic { panic("boom") }}
	mem := newMemTier()
	for run := 1; run <= 2; run++ {
		reg := obs.NewRegistry()
		rep, err := analyze(pkg, Config{
			Checkers: []*Checker{dl, boom},
			Entries:  []string{"Top"},
			Cache:    cache,
			Metrics:  reg,
		}, mem)
		const want = "analysis: boom/Top: panic: boom"
		if rep != nil || err == nil || err.Error() != want {
			t.Fatalf("run %d: report %v, error %v; want error %q", run, rep, err, want)
		}
		if got := obs.NewDriverMetrics(reg).JobsSolved.Value(); got != int64(3-run) {
			t.Errorf("run %d solved %d job(s), want %d", run, got, 3-run)
		}
	}
}

// A panic while an entry's shared state is computed — its null layer,
// or the goroutine abstraction that race and lockorder share — fails
// that job, and every later job that needs the state fails too: the
// Once guarding it never runs again, so they must not read its zero
// value (zero stats, no goroutines) and report nothing. Each case plants
// the state a panic leaves: a skeleton with no system, whose null layer
// panics, and an enumeration that never returned.
func TestPanickedSharedStateFailsLaterJobs(t *testing.T) {
	pkg := loadCorpus(t)
	entry := pkg.Roots()[0]
	broken := &skelEntry{sk: &pdm.Skeleton{}}
	broken.once.Do(func() {})
	pkg.skels = map[string]*skelEntry{entry: broken}
	unfinished := &entryGoroutines{}
	unfinished.once.Do(func() {})
	pkg.concModel().gsCache[entry] = unfinished
	for _, name := range []string{"fileleak", "doublelock", "lockorder", "race"} {
		c, _ := Get(name)
		if rec, err := runJob(pkg, c, entry, nil, nil); err == nil {
			t.Errorf("%s/%s: record %+v, want an error", name, entry, rec)
		}
	}
}

// The cache keys are pinned. A change to the registry fingerprint, to
// a checker's fingerprint (the record's slot) or to how a record file
// is named turns every record a filled cache holds into a miss, so it
// must fail here before it ships.
func TestCacheKeysGolden(t *testing.T) {
	if got, want := registryFingerprint(), "0ce69ce7b1b0bc39044de2291e4d8981f4289aeb5a67328dfe11d90986c84bcb"; got != want {
		t.Errorf("registry fingerprint %s, want %s", got, want)
	}
	dl, _ := Get("doublelock")
	k := recordKey{regFP: "reg", checker: dl.fingerprint(), entry: "Top", summary: "sum"}
	if got, want := k.slot(), "a65fb18d98a1d332e088ba55a22af0efaf25234554f819fe732036f385e59f14"; got != want {
		t.Errorf("doublelock slot %s, want %s", got, want)
	}
	for _, tc := range []struct {
		explain bool
		want    string
	}{
		{false, "job-d4b76d440cf5c892179e1aabed03c53b6ff402acf8dd4b8d1b618b760454494e.json"},
		{true, "job-bea79745a68bb9d9145a154cc4b101475cbc22ddeae866f9e63f64e08be8e7d4.json"},
	} {
		k.explain = tc.explain
		if got := k.fileName(); got != tc.want {
			t.Errorf("explain=%v: record file %s, want %s", tc.explain, got, tc.want)
		}
	}
}

// A checker's fingerprint reads only its event rules, so building a
// cache key compiles no spec: fingerprinting a freshly built copy of
// each builtin leaves its property uncompiled and matches the builtin's.
func TestCheckerFingerprintCompilesNoSpec(t *testing.T) {
	for _, b := range builtins {
		c := &Checker{Name: b.Name, Doc: b.Doc, Severity: b.Severity, Mode: b.Mode, NewEvents: b.NewEvents,
			Run: b.Run, Message: b.Message, Spec: b.Spec, Version: b.Version}
		if got, want := c.fingerprint(), b.fingerprint(); got != want {
			t.Errorf("%s: fresh fingerprint differs from the builtin's", b.Name)
		}
		if c.prop != nil {
			t.Errorf("%s: fingerprinting compiled the property", b.Name)
		}
	}
}

// A warm fully-cached run must hit on every lookup, re-solve zero
// functions, and reproduce a byte-identical report. Files the store
// does not name, such as the skeleton snapshots older versions wrote
// beside the job records, are neither read nor removed, and add no
// note.
func TestCacheWarmRunIsFreeAndIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := analyzeCached(t, dir, cacheSrc)
	if cold.Cache.Hits != 0 || cold.Cache.Misses == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", cold.Cache.Hits, cold.Cache.Misses)
	}
	if cold.Cache.ResolvedFunctions != 5 || cold.Cache.TotalFunctions != 5 {
		t.Fatalf("cold run resolved %d/%d functions, want 5/5 (%v)",
			cold.Cache.ResolvedFunctions, cold.Cache.TotalFunctions, cold.Cache.Resolved)
	}
	other := filepath.Join(dir, "skel-0123.snap")
	if err := os.WriteFile(other, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := analyzeCached(t, dir, cacheSrc)
	if warm.Cache.Misses != 0 || warm.Cache.Hits != cold.Cache.Misses {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0",
			warm.Cache.Hits, warm.Cache.Misses, cold.Cache.Misses)
	}
	if len(warm.Cache.Notes) != 0 {
		t.Fatalf("warm run notes: %v", warm.Cache.Notes)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("the store touched a file it does not name: %v", err)
	}
	if warm.Cache.ResolvedFunctions != 0 || len(warm.Cache.Resolved) != 0 {
		t.Fatalf("warm run re-solved %v", warm.Cache.Resolved)
	}
	if warm.Cache.HitRate() != 100 {
		t.Fatalf("warm hit rate = %v", warm.Cache.HitRate())
	}
	if findingsJSON(t, cold) != findingsJSON(t, warm) {
		t.Fatalf("warm report differs from cold:\ncold: %s\nwarm: %s",
			findingsJSON(t, cold), findingsJSON(t, warm))
	}
	if len(cold.Diagnostics) != 1 || cold.Diagnostics[0].Checker != "doublelock" {
		t.Fatalf("corpus should yield exactly the doublelock finding, got %+v", cold.Diagnostics)
	}
}

// Editing one function re-solves exactly its SCC and transitive callers;
// the disjoint Other/ok tree stays cached.
func TestCacheEditResolvesOnlyDependents(t *testing.T) {
	dir := t.TempDir()
	analyzeCached(t, dir, cacheSrc)
	// Same-line edit (the fingerprint includes line numbers, so inserting
	// lines would legitimately invalidate everything below the edit).
	edited := strings.Replace(cacheSrc, "mu.Lock() // BUG", "mu.Unlock()", 1)
	rep := analyzeCached(t, dir, edited)
	if got := strings.Join(rep.Cache.Resolved, ","); got != "Top,leaf,mid" {
		t.Fatalf("resolved = %q, want Top,leaf,mid", got)
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("the untouched Other/ok tree should still hit")
	}
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("fixed program still reports %+v", rep.Diagnostics)
	}
	// And the fix itself is cacheable: a warm re-run of the edited source
	// is free again.
	rerun := analyzeCached(t, dir, edited)
	if rerun.Cache.Misses != 0 || rerun.Cache.ResolvedFunctions != 0 {
		t.Fatalf("re-run after edit: misses=%d resolved=%d", rerun.Cache.Misses, rerun.Cache.ResolvedFunctions)
	}
}

// Suppression comments are not part of function fingerprints: adding or
// removing //rasc:ignore must take effect on a fully warm cache — the
// cache stores pre-suppression results and the merge phase re-applies
// the current directives, so a stale cache can neither hide a finding
// nor resurrect a suppressed one.
func TestCacheSuppressionStaleness(t *testing.T) {
	dir := t.TempDir()
	base := analyzeCached(t, dir, cacheSrc)
	if len(base.Diagnostics) != 1 || base.Suppressed != 0 {
		t.Fatalf("baseline: %d findings, %d suppressed", len(base.Diagnostics), base.Suppressed)
	}
	ignored := strings.Replace(cacheSrc, "mu.Lock() // BUG", "mu.Lock() //rasc:ignore", 1)
	rep := analyzeCached(t, dir, ignored)
	if rep.Cache.Misses != 0 {
		t.Fatalf("an ignore-comment edit should stay fully cached, got %d misses", rep.Cache.Misses)
	}
	if len(rep.Diagnostics) != 0 || rep.Suppressed != 1 {
		t.Fatalf("with ignore: %d findings, %d suppressed", len(rep.Diagnostics), rep.Suppressed)
	}
	// Removing the directive resurfaces the finding from the same cache.
	back := analyzeCached(t, dir, cacheSrc)
	if back.Cache.Misses != 0 {
		t.Fatalf("removing the ignore should stay fully cached, got %d misses", back.Cache.Misses)
	}
	if len(back.Diagnostics) != 1 || back.Suppressed != 0 {
		t.Fatalf("without ignore: %d findings, %d suppressed", len(back.Diagnostics), back.Suppressed)
	}
}

// Corrupt records — truncation, garbage — demote to misses with a note;
// the run never panics and reports the same findings as a cold run.
func TestCacheCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	cold := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	for i, e := range ents {
		path := filepath.Join(dir, e.Name())
		switch i % 2 {
		case 0: // truncate mid-file
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:len(raw)/2], 0o644)
		case 1: // replace with garbage
			os.WriteFile(path, []byte("\x00not json\xff"), 0o644)
		}
		mangled++
	}
	if mangled == 0 {
		t.Fatal("no cache records written")
	}
	rep := analyzeCached(t, dir, cacheSrc)
	if rep.Cache.Hits != 0 {
		t.Fatalf("mangled cache still hit %d times", rep.Cache.Hits)
	}
	if len(rep.Cache.Notes) == 0 {
		t.Fatal("corruption must be noted")
	}
	if findingsJSON(t, rep) != findingsJSON(t, cold) {
		t.Fatal("corrupted cache changed the report")
	}
	// The mangled records were discarded and rewritten: the next run is
	// warm again.
	again := analyzeCached(t, dir, cacheSrc)
	if again.Cache.Misses != 0 {
		t.Fatalf("recovery run: misses=%d", again.Cache.Misses)
	}
}

// Records written under another format version read as misses with a
// note — a version bump falls back to a cold run, never a wrong report.
func TestCacheVersionSkew(t *testing.T) {
	dir := t.TempDir()
	cold := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		env["version"] = json.RawMessage("999")
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(path, out, 0o644)
	}
	rep := analyzeCached(t, dir, cacheSrc)
	if rep.Cache.Hits != 0 {
		t.Fatalf("version-skewed cache still hit %d times", rep.Cache.Hits)
	}
	// Every record is skewed, yet the run reports it once.
	if skew := notesContaining(rep.Cache.Notes, "format version"); len(skew) != 1 ||
		!strings.Contains(skew[0], "format version 999") {
		t.Fatalf("want exactly one skew note naming format version 999, got %v", rep.Cache.Notes)
	}
	if findingsJSON(t, rep) != findingsJSON(t, cold) {
		t.Fatal("version skew changed the report")
	}
}

func notesContaining(notes []string, sub string) []string {
	var out []string
	for _, n := range notes {
		if strings.Contains(n, sub) {
			out = append(out, n)
		}
	}
	return out
}

// A cold run leaves exactly one job-record file per entry in the cache
// directory, and nothing else.
func TestCacheColdRunLayout(t *testing.T) {
	dir := t.TempDir()
	rep := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "job-") && strings.HasSuffix(name, ".json") {
			jobs++
		} else {
			t.Errorf("unexpected file %s in the cache directory", name)
		}
	}
	if jobs != len(rep.Entries) {
		t.Fatalf("%d job-record files, want %d", jobs, len(rep.Entries))
	}
}

// Each entry's job records share one file. A run over a subset of the
// checkers leaves the records of the others in place, and a later run
// adds its own to the same file, so every combination stays warm.
func TestCacheRecordFilePerEntry(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := Get("doublelock")
	lb, _ := Get("lockbalance")
	run := func(checkers ...*Checker) *Report {
		pkg, err := LoadFiles([]gosrc.File{{Name: "c.go", Src: cacheSrc}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(pkg, Config{Checkers: checkers, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	recordFiles := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "job-") {
				n++
			}
		}
		return n
	}

	one := run(dl)
	if got := recordFiles(); got != len(one.Entries) {
		t.Fatalf("doublelock run: %d record files, want one per entry (%d)", got, len(one.Entries))
	}
	both := run(dl, lb)
	if both.Cache.Hits != one.Jobs || both.Cache.Misses != both.Jobs-one.Jobs {
		t.Fatalf("doublelock+lockbalance run: hits=%d misses=%d, want %d and %d",
			both.Cache.Hits, both.Cache.Misses, one.Jobs, both.Jobs-one.Jobs)
	}
	if got := recordFiles(); got != len(both.Entries) {
		t.Fatalf("after the second run: %d record files, want %d", got, len(both.Entries))
	}
	for _, checkers := range [][]*Checker{{dl, lb}, {lb}, {dl}} {
		if rep := run(checkers...); rep.Cache.Misses != 0 || rep.Cache.Hits != rep.Jobs {
			t.Errorf("warm run over %d checker(s): hits=%d misses=%d, want %d and 0",
				len(checkers), rep.Cache.Hits, rep.Cache.Misses, rep.Jobs)
		}
	}
}

// gateWriter is a progress sink that parks the run writing to it at its
// first job tick until release is closed.
type gateWriter struct {
	once             sync.Once
	reached, release chan struct{}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), "jobs 1/") {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return len(p), nil
}

// Cache notes belong to the run that hit the incident, even when another
// run on the same Cache finishes while it is still in flight.
func TestCacheNotesStayWithTheirRun(t *testing.T) {
	dir := t.TempDir()
	analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "job-") {
			os.WriteFile(filepath.Join(dir, e.Name()), []byte("\x00not json\xff"), 0o644)
		}
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := Get("doublelock")
	load := func(src string) *Package {
		pkg, err := LoadFiles([]gosrc.File{{Name: "c.go", Src: src}})
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}

	// Run A reads a corrupt record in its first job, then parks.
	gate := &gateWriter{reached: make(chan struct{}), release: make(chan struct{})}
	var repA *Report
	done := make(chan error, 1)
	go func() {
		var err error
		repA, err = Analyze(load(cacheSrc), Config{Checkers: []*Checker{dl}, Cache: cache, Parallel: 1,
			Progress: obs.NewProgress(gate)})
		done <- err
	}()
	select {
	case <-gate.reached:
	case err := <-done:
		t.Fatalf("run A finished without ticking its first job: %v", err)
	}
	// Run B, over other code, starts and finishes meanwhile.
	repB, err := Analyze(load(engBSrc), Config{Checkers: []*Checker{dl}, Cache: cache})
	close(gate.release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(repB.Cache.Notes) != 0 {
		t.Errorf("run B reports notes it never caused: %v", repB.Cache.Notes)
	}
	if len(notesContaining(repA.Cache.Notes, "corrupt record")) == 0 {
		t.Errorf("run A lost its corrupt-record note: %v", repA.Cache.Notes)
	}
}

// The cache's end-to-end contract over this repository's internal/...
// tree, as gocheck -cache-dir runs it: a cold run computes and stores
// every job; a warm run is served entirely from job records; with the
// job records deleted, a run computes every job again, as cold did. All
// three render SARIF byte-identical to a cacheless run.
func TestCacheTiersOverInternal(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) (*Report, string) {
		pkg, err := LoadPaths([]string{internalTree})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(pkg, Config{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Cache.Notes) != 0 {
			t.Errorf("%s run: cache notes %v", name, rep.Cache.Notes)
		}
		shadow := *rep
		shadow.Cache = nil
		var buf bytes.Buffer
		if err := shadow.SARIF(&buf); err != nil {
			t.Fatal(err)
		}
		return rep, buf.String()
	}
	type counts struct{ hits, misses, resolved int }
	check := func(name string, rep *Report, want counts) {
		c := rep.Cache
		got := counts{c.Hits, c.Misses, c.ResolvedFunctions}
		if got != want {
			t.Errorf("%s run: %+v, want %+v", name, got, want)
		}
	}

	var plain bytes.Buffer
	if err := plainReport(t, internalTree).SARIF(&plain); err != nil {
		t.Fatal(err)
	}
	cold, want := run("cold")
	if want != plain.String() {
		t.Error("cold run's SARIF differs from a cacheless run's")
	}
	jobs := cold.Jobs
	check("cold", cold, counts{misses: jobs, resolved: cold.Cache.ResolvedFunctions})
	if cold.Cache.ResolvedFunctions == 0 {
		t.Error("cold run re-solved no function")
	}

	warm, got := run("warm")
	check("warm", warm, counts{hits: jobs})
	if got != want {
		t.Error("warm run changed the SARIF")
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "job-") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	deleted, got := run("records-deleted")
	check("records-deleted", deleted, counts{misses: jobs, resolved: cold.Cache.ResolvedFunctions})
	if got != want {
		t.Error("records-deleted run changed the SARIF")
	}
}
