package main

import (
	"io"
	"os"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/server"
)

// serverOpts carries the -server client mode's inputs.
type serverOpts struct {
	addr      string
	program   string
	timeout   time.Duration
	paths     []string
	checkers  []*analysis.Checker
	entries   []string
	write     func(*analysis.Report, io.Writer) error
	threshold analysis.Severity
	explain   bool
}

// runServer is gocheck's client mode: read the local file set, diff it
// against the daemon's manifest, post the minimal delta, and render the
// returned report through the same renderers as an in-process run —
// output and exit codes are identical to a one-shot gocheck over the
// same sources.
func runServer(o serverOpts) int {
	files, err := analysis.ReadPathFiles(o.paths)
	if err != nil {
		return fail(err)
	}
	checkerNames := make([]string, len(o.checkers))
	for i, c := range o.checkers {
		checkerNames[i] = c.Name
	}

	// The client retries a connection-refused failure once, after a
	// short wait, so a daemon mid-restart doesn't fail the check; server
	// errors come back tagged with the request's trace ID for log lookup.
	c := server.NewClientWith(o.addr, server.ClientOptions{Timeout: o.timeout})
	rep, err := c.CheckFiles(o.program, files, server.CheckRequest{
		Checkers: checkerNames,
		Entries:  o.entries,
		Explain:  o.explain,
	})
	if err != nil {
		return fail(err)
	}
	if err := o.write(rep, os.Stdout); err != nil {
		return fail(err)
	}
	if rep.HasFindingsAtLeast(o.threshold) {
		return 3
	}
	return 0
}
