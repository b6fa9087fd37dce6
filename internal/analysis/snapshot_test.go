package analysis

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc/internal/snapshot"
)

// renderAll renders a report in every machine- and human-facing format
// (text, JSON, SARIF), with the cache telemetry dropped the way gocheck
// drops it before rendering. Byte equality of this string is the
// differential test's notion of "identical output".
func renderAll(t *testing.T, rep *Report) string {
	t.Helper()
	shadow := *rep
	shadow.Cache = nil
	var buf bytes.Buffer
	for _, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return shadow.Text(b) },
		func(b *bytes.Buffer) error { return shadow.JSON(b) },
		func(b *bytes.Buffer) error { return shadow.SARIF(b) },
	} {
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n----\n")
	}
	return buf.String()
}

// snapshotCorpusRun populates dir with a cached run over the full test
// corpus, strips the JSON result records so only the frozen skeleton
// snapshots remain, and returns a fresh-Package run that reconstructs
// every skeleton from bytes and re-solves every job on top of them.
func snapshotCorpusRun(t *testing.T, dir string, parallel int) *Report {
	t.Helper()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true, Parallel: parallel}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".json"):
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatal("populate run wrote no skeleton snapshots")
	}
	rep, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The full-corpus differential: every checker over every root entry,
// with explain (provenance) on, must render byte-identically — text,
// JSON and SARIF — whether the constraint skeletons were built and
// solved live or reconstructed from frozen snapshots, at -parallel 1
// and 8 alike.
func TestSnapshotDifferentialFullCorpus(t *testing.T) {
	var want string
	for _, parallel := range []int{1, 8} {
		live, err := Analyze(loadCorpus(t), Config{Explain: true, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		liveOut := renderAll(t, live)
		if want == "" {
			want = liveOut
		} else if liveOut != want {
			t.Fatalf("parallel=%d: live run output depends on parallelism", parallel)
		}

		rep := snapshotCorpusRun(t, t.TempDir(), parallel)
		if rep.Cache.SkeletonHits == 0 || rep.Cache.SkeletonMisses != 0 {
			t.Fatalf("parallel=%d: snapshot run hits=%d misses=%d, want every skeleton decoded",
				parallel, rep.Cache.SkeletonHits, rep.Cache.SkeletonMisses)
		}
		if got := renderAll(t, rep); got != want {
			t.Fatalf("parallel=%d: snapshot-loaded skeletons changed the rendered output", parallel)
		}
	}
}

// Corrupt snapshots demote to a live skeleton build — counted and
// noted, findings unchanged, never a wrong report.
func TestSnapshotCorruptionDemotesToLiveBuild(t *testing.T) {
	live, err := Analyze(loadCorpus(t), Config{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, live)

	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if strings.HasSuffix(e.Name(), ".json") {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Flip a payload byte without resealing: the container's SHA-256
		// catches it and the decoder classifies the file as corrupt.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.SkeletonCorrupt == 0 || rep.Cache.SkeletonHits != 0 {
		t.Fatalf("corrupt snapshots: hits=%d corrupt=%d, want 0 hits and corruption counted",
			rep.Cache.SkeletonHits, rep.Cache.SkeletonCorrupt)
	}
	noted := false
	for _, n := range rep.Cache.Notes {
		if strings.Contains(n, "skeleton snapshot") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("corruption must be noted: %v", rep.Cache.Notes)
	}
	if got := renderAll(t, rep); got != want {
		t.Fatal("corrupt snapshots changed the rendered output")
	}
	// The corrupt files were discarded; the next run rebuilds and
	// re-stores clean snapshots, then hits again.
	if _, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true}); err != nil {
		t.Fatal(err)
	}
}

// Version-skewed snapshots (a future or past container format) demote
// to a live build as skew, not corruption, and change nothing.
func TestSnapshotVersionSkewDemotesToLiveBuild(t *testing.T) {
	live, err := Analyze(loadCorpus(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, live)

	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(loadCorpus(t), Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if strings.HasSuffix(e.Name(), ".json") {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[4:], uint32(snapshot.FormatVersion+1))
		if err := os.WriteFile(path, snapshot.Reseal(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Analyze(loadCorpus(t), Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.SkeletonHits != 0 || rep.Cache.SkeletonMisses == 0 || rep.Cache.SkeletonCorrupt != 0 {
		t.Fatalf("skewed snapshots: hits=%d misses=%d corrupt=%d, want pure misses",
			rep.Cache.SkeletonHits, rep.Cache.SkeletonMisses, rep.Cache.SkeletonCorrupt)
	}
	// Every snapshot is skewed, yet the run reports it once.
	if skew := notesContaining(rep.Cache.Notes, "format version"); len(skew) != 1 {
		t.Fatalf("want exactly one skew note, got %v", rep.Cache.Notes)
	}
	if got := renderAll(t, rep); got != want {
		t.Fatal("version-skewed snapshots changed the rendered output")
	}
}

// NoSkeletonSnapshots must suppress the snapshot tier entirely.
func TestSnapshotOptOut(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(loadCorpus(t), Config{Cache: cache, NoSkeletonSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.SkeletonHits != 0 || rep.Cache.SkeletonMisses != 0 {
		t.Fatalf("opted out but skeleton lookups ran: %+v", rep.Cache)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			t.Fatalf("opted out but snapshot %s was written", e.Name())
		}
	}
}
