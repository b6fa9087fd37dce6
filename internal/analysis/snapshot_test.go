package analysis

import (
	"bytes"
	"testing"

	"rasc/internal/core"
	"rasc/internal/pdm"
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

// snapshotSeeded returns a freshly loaded test corpus whose skeleton map
// already holds, for every root entry, a skeleton decoded from the
// snapshot of one built live over another load of the corpus, so every
// property job of an Analyze run layers on a decoded skeleton. It also
// returns the decoded skeletons by entry.
func snapshotSeeded(t *testing.T) (*Package, map[string]*pdm.Skeleton) {
	t.Helper()
	live, pkg := loadCorpus(t), loadCorpus(t)
	pkg.skels = map[string]*skelEntry{}
	decoded := map[string]*pdm.Skeleton{}
	for _, e := range pkg.Roots() {
		se := live.skeleton(e, nil)
		if se.err != nil {
			t.Fatal(se.err)
		}
		dec, err := pdm.LoadSkeleton(se.sk.Snapshot(), pkg.Prog, e, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		seeded := &skelEntry{sk: dec}
		seeded.once.Do(func() {})
		pkg.skels[e], decoded[e] = seeded, dec
	}
	return pkg, decoded
}

// The full-corpus differential: every checker over every root entry,
// with explain (provenance) on, must render byte-identically — text,
// JSON and SARIF — whether the constraint skeletons were built and
// solved live or reconstructed from their snapshots, at pool sizes 1
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

		pkg, decoded := snapshotSeeded(t)
		rep, err := Analyze(pkg, Config{Explain: true, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		for e, dec := range decoded {
			if pkg.skels[e] == nil || pkg.skels[e].sk != dec {
				t.Fatalf("parallel=%d: %s's skeleton was rebuilt live, not decoded", parallel, e)
			}
		}
		if got := renderAll(t, rep); got != want {
			t.Fatalf("parallel=%d: snapshot-loaded skeletons changed the rendered output", parallel)
		}
	}
}
