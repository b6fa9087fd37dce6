package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runCLI measures the one-shot gocheck path. Each operation is one
// `gocheck -format sarif -cache-dir DIR .` process, timed from start to
// exit:
//
//	cold  a fresh cache directory each time
//	warm  the cache the set-up filled, with the corpus unchanged
//	incr  a never-seen one-line edit first, then a run against the
//	      cache, which keeps every earlier edit's records
func runCLI(cfg config, r *result) error {
	c, err := newCorpus(cfg.seed, cfg.files)
	if err != nil {
		return err
	}
	bins, err := buildBinaries(cfg.root)
	if err != nil {
		return err
	}
	dir, release, err := scratchDir(cfg.root, cfg.workload)
	if err != nil {
		return err
	}
	defer release()
	src := filepath.Join(dir, "src")
	if err := os.Mkdir(src, 0o755); err != nil {
		return err
	}
	if err := writeFiles(src, c.files...); err != nil {
		return err
	}
	ref, err := newReference(cfg.refs, c.files)
	if err != nil {
		return err
	}
	checked := func(run cliRun, err error) (cliRun, bool) {
		if err == nil && !bytes.Equal(run.stdout, ref.SARIF) {
			err = errors.New("gocheck output differs from the reference")
		}
		return run, r.check(err)
	}

	cal, err := newCalibrator()
	if err != nil {
		return err
	}

	// The CLI path's own set-up is filling the cache with a cold run. It
	// is done three times, into fresh directories; the last one stays.
	var cache string
	setup, err := cal.setups(setupRepeats, func(i int) (time.Duration, error) {
		cache = filepath.Join(dir, fmt.Sprintf("cache%d", i))
		run, ok := checked(runGocheck(bins.gocheck, src, cache))
		if !ok {
			return 0, fmt.Errorf("set-up run: %s", r.problems[len(r.problems)-1])
		}
		return run.wall, nil
	})
	if err != nil {
		return err
	}

	var op func() (cliRun, error)
	switch cfg.workload {
	case "cold":
		fresh := filepath.Join(dir, "cold")
		op = func() (cliRun, error) {
			if err := os.RemoveAll(fresh); err != nil {
				return cliRun{}, err
			}
			return runGocheck(bins.gocheck, src, fresh)
		}
	case "warm":
		op = func() (cliRun, error) { return runGocheck(bins.gocheck, src, cache) }
	case "incr":
		st, edits := c.state(), c.novel(cfg.seed, 0)
		op = func() (cliRun, error) {
			if err := writeFiles(src, st.apply(edits.next())); err != nil {
				return cliRun{}, err
			}
			return runGocheck(bins.gocheck, src, cache)
		}
	default:
		return fmt.Errorf("unknown CLI workload %q", cfg.workload)
	}

	checked(op()) // warm-up, discarded
	var rss []float64
	raw, lat, err := cal.loop(cfg.seconds, func() (time.Duration, bool) {
		run, ok := checked(op())
		if ok {
			rss = append(rss, run.rssMB)
		}
		return run.wall, ok
	})
	if err != nil {
		return err
	}
	if len(lat) == 0 {
		return fmt.Errorf("no operation succeeded")
	}
	r.endToEnd(cal, raw, lat, perSecond(lat), median(rss), len(rss), setup)
	return nil
}

// setupRepeats is how many times each workload performs its set-up;
// setup_s is the median.
const setupRepeats = 3

// endToEnd reports the four end-to-end metrics from calibrated
// latencies, throughput and set-up times, with the raw figures and the
// highest percentile the sample count supports as notes.
func (r *result) endToEnd(cal *calibrator, raw, lat []float64, opsPerS, rssMB float64, nRSS int, setup []float64) {
	r.add("op_p50_ms", median(lat), "ms", len(lat))
	r.add("ops_per_s", opsPerS, "1/s", len(lat))
	r.add("peak_rss_mb", rssMB, "MB", nRSS)
	r.add("setup_s", median(setup), "s", len(setup))
	if label, v, ok := tail(lat); ok {
		r.notef("op_%s_ms %.4f ms n=%d", label, v, len(lat))
	}
	r.notef("uncalibrated op_p50_ms %.4f ms", median(raw))
	cal.note(r)
}
