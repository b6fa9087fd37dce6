package main

import (
	"bytes"
	"embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"time"
)

// The machines this benchmark runs on share their hosts, and their
// speed drifts by 15-35% over minutes: every timing of the checker moves
// with it. Timings are therefore calibrated against a reference job
// that does what a checker process does (start a Go process, parse Go
// source, build maps, sort, allocate and touch memory) with fixed code
// and fixed input, run between measured segments. A reported time is
// the measured time scaled by refNominal over the reference job's time
// around it, that is, the time the machine would have taken at the
// speed at which the reference job takes refNominal.

// refNominal is the reference job's time on the machine the benchmark
// was calibrated on (2 vCPUs of an Intel Xeon), so calibrated times
// there read close to raw ones.
const refNominal = 100 * time.Millisecond

// segmentLen is the least measured time between two reference jobs.
const segmentLen = time.Second

// referenceEnv, set to 1 in a child's environment, makes the benchmark
// binary (or its test binary) run the reference job and exit.
const referenceEnv = "BENCH_REFERENCE_JOB"

// refSources is the reference job's input: the benchmark's own sources,
// which a change to the checker never touches.
//
//go:embed *.go
var refSources embed.FS

var refSink int

// referenceJob is the fixed work every timing is calibrated against.
func referenceJob() {
	names, err := fs.Glob(refSources, "*.go")
	if err != nil {
		panic(err)
	}
	nodes := 0
	for range 4 {
		fset := token.NewFileSet()
		for _, name := range names {
			src, err := refSources.ReadFile(name)
			if err != nil {
				panic(err)
			}
			f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
			if err != nil {
				panic(err)
			}
			ast.Inspect(f, func(ast.Node) bool { nodes++; return true })
		}
	}
	r := rand.New(rand.NewSource(1))
	m := make(map[int]int)
	for i := range 200_000 {
		m[r.Int()] = i
	}
	xs := make([]int, 300_000)
	for i := range xs {
		xs[i] = r.Int()
	}
	sort.Ints(xs)
	mem := make([]byte, 64<<20)
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = byte(i)
	}
	refSink = nodes + len(m) + xs[0] + int(mem[4096])
}

// calibrator runs the reference job and keeps its timings.
type calibrator struct {
	self string    // the executable that runs the job
	ms   []float64 // every reference time measured, for the log
}

func newCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &calibrator{self: self}, nil
}

// refsPerGap is how many reference jobs run before, between and after
// the measured steps. One run of the job is itself noisy (its
// interquartile range is about 15% of its median), so each step is
// calibrated by the median of the runs on both sides of it.
const refsPerGap = 2

// run runs the reference job once and returns its time in milliseconds.
func (c *calibrator) run() (float64, error) {
	cmd := exec.Command(c.self)
	cmd.Env = append(os.Environ(), referenceEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	err := runToEnd(cmd)
	d := ms(time.Since(start))
	if err != nil {
		return 0, fmt.Errorf("reference job: %v: %s", err, out.Bytes())
	}
	c.ms = append(c.ms, d)
	return d, nil
}

// bracketed runs step(0), step(1), … while more(i) holds, with
// refsPerGap reference jobs before, between and after the steps, and
// returns each step's calibration factor: refNominal over the median
// reference time on both sides of the step.
func (c *calibrator) bracketed(more func(i int) bool, step func(i int) error) ([]float64, error) {
	var gaps [][]float64
	gap := func() error {
		var times []float64
		for range refsPerGap {
			t, err := c.run()
			if err != nil {
				return err
			}
			times = append(times, t)
		}
		gaps = append(gaps, times)
		return nil
	}
	if err := gap(); err != nil {
		return nil, err
	}
	n := 0
	for ; more(n) && !live.stopped(); n++ {
		if err := step(n); err != nil {
			return nil, err
		}
		if err := gap(); err != nil {
			return nil, err
		}
	}
	scales := make([]float64, n)
	for i := range scales {
		around := append(append([]float64(nil), gaps[i]...), gaps[i+1]...)
		scales[i] = ms(refNominal) / median(around)
	}
	return scales, nil
}

// setups runs setup n times, bracketed by reference jobs, and returns
// each run's calibrated time in seconds.
func (c *calibrator) setups(n int, setup func(i int) (time.Duration, error)) ([]float64, error) {
	var raw []time.Duration
	scales, err := c.bracketed(func(i int) bool { return i < n }, func(i int) error {
		d, err := setup(i)
		raw = append(raw, d)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, d := range raw {
		out[i] = d.Seconds() * scales[i]
	}
	return out, nil
}

// loop is one client's measured loop: op repeatedly, in segments of at
// least segmentLen between reference jobs, until d has passed, and at
// least one segment. op returns an operation's latency and whether it
// succeeded. loop returns the successful operations' latencies in
// milliseconds, raw and calibrated.
func (c *calibrator) loop(d time.Duration, op func() (time.Duration, bool)) (raw, calibrated []float64, err error) {
	var segs [][]float64
	start := time.Now()
	scales, err := c.bracketed(func(i int) bool { return i == 0 || time.Since(start) < d }, func(int) error {
		var seg []float64
		t0 := time.Now()
		for first := true; first || (time.Since(t0) < segmentLen && !live.stopped()); first = false {
			if lat, ok := op(); ok {
				seg = append(seg, ms(lat))
			}
		}
		segs = append(segs, seg)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, seg := range segs {
		for _, v := range seg {
			raw = append(raw, v)
			calibrated = append(calibrated, v*scales[i])
		}
	}
	return raw, calibrated, nil
}

// note records the reference job's timings on the result.
func (c *calibrator) note(r *result) {
	r.notef("reference job %.4f ms median over %d runs (calibrated times assume %.0f ms)",
		median(c.ms), len(c.ms), ms(refNominal))
}
