package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// corpus is the analysis package's known-buggy test corpus.
const corpus = "../../internal/analysis/testdata/src"

// TestMain makes the test binary double as gocheck: started with
// GOCHECK_TEST_MAIN=1, it runs main on its arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("GOCHECK_TEST_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// gocheck runs the command with args and returns its exit code and
// standard error.
func gocheck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GOCHECK_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// badValues are flag values gocheck must reject as usage errors.
var badValues = [][]string{
	{"-fail-on", "bogus"},
	{"-format", "yaml"},
}

// A bad -fail-on or -format value fails the one-shot run with exit 2
// before it loads or analyzes anything, so nothing reaches the cache
// directory. A valid run over the same corpus is the control: it
// fills the cache and exits 3 on the corpus's findings.
func TestBadFlagValuesFailBeforeAnalysis(t *testing.T) {
	for _, bad := range badValues {
		dir := filepath.Join(t.TempDir(), "cache")
		code, stderr := gocheck(t, append(bad, "-cache-dir", dir, corpus)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", bad, code, stderr)
		}
		if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
			t.Errorf("%v: the run wrote %d file(s) to the cache directory", bad, len(ents))
		}
	}

	dir := filepath.Join(t.TempDir(), "cache")
	if code, stderr := gocheck(t, "-format", "json", "-cache-dir", dir, corpus); code != 3 {
		t.Fatalf("valid run: exit %d, want 3 (stderr: %s)", code, stderr)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
		t.Fatalf("valid run left no cache files (%v)", err)
	}
}

// In -server mode a bad value fails with exit 2 before any request
// reaches the daemon.
func TestBadFlagValuesSendNoRequest(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request expected", http.StatusInternalServerError)
	}))
	defer srv.Close()
	for _, bad := range badValues {
		code, stderr := gocheck(t, append(bad, "-server", srv.URL, corpus)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", bad, code, stderr)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d request(s) reached the server", n)
	}
}
