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

// A warm fully-cached run must hit on every lookup, re-solve zero
// functions, and reproduce a byte-identical report.
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
	warm := analyzeCached(t, dir, cacheSrc)
	if warm.Cache.Misses != 0 || warm.Cache.Hits != cold.Cache.Misses {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0",
			warm.Cache.Hits, warm.Cache.Misses, cold.Cache.Misses)
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
		if !strings.HasSuffix(e.Name(), ".json") {
			// Skeleton snapshots are not JSON envelopes; their version
			// skew is covered by TestSkeletonSnapshotVersionSkew.
			continue
		}
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

// A cold run leaves exactly one job-record file and one skeleton
// snapshot per entry in the cache directory, and nothing else.
func TestCacheColdRunLayout(t *testing.T) {
	dir := t.TempDir()
	rep := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, snaps := 0, 0
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "job-") && strings.HasSuffix(name, ".json"):
			jobs++
		case strings.HasPrefix(name, "skel-") && strings.HasSuffix(name, ".snap"):
			snaps++
		default:
			t.Errorf("unexpected file %s in the cache directory", name)
		}
	}
	if jobs != len(rep.Entries) || snaps != len(rep.Entries) {
		t.Fatalf("%d job-record files and %d snapshots, want %d each", jobs, snaps, len(rep.Entries))
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
// every job and skeleton; a warm run is served entirely from job
// records; with the job records deleted, a snapshot-cold run decodes
// every skeleton and re-layers every job on it. All three render
// byte-identical SARIF.
func TestCacheTiersOverInternal(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) (*Report, string) {
		pkg, err := LoadPaths([]string{"../..."})
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
	type counts struct{ hits, misses, resolved, skelHits, skelMisses, skelCorrupt int }
	check := func(name string, rep *Report, want counts) {
		c := rep.Cache
		got := counts{c.Hits, c.Misses, c.ResolvedFunctions, c.SkeletonHits, c.SkeletonMisses, c.SkeletonCorrupt}
		if got != want {
			t.Errorf("%s run: %+v, want %+v", name, got, want)
		}
	}

	cold, want := run("cold")
	jobs, entries := cold.Jobs, len(cold.Entries)
	check("cold", cold, counts{misses: jobs, resolved: cold.Cache.ResolvedFunctions, skelMisses: entries})
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
	snap, got := run("snapshot-cold")
	check("snapshot-cold", snap, counts{misses: jobs, resolved: cold.Cache.ResolvedFunctions, skelHits: entries})
	if got != want {
		t.Error("snapshot-cold run changed the SARIF")
	}
}
