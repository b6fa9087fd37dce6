package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported value. n is the number of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is one workload run: its metrics, its operation tally and any
// extra lines worth printing (tail percentiles, generator overhead).
type result struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	notes     []string
	problems  []string // the first few failures, for the log
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one attempted operation; a non-nil err marks it failed.
func (r *result) check(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
	}
	return false
}

// print writes one `workload metric value unit n=samples` line per
// metric, then the notes and failures.
func (r *result) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", r.workload, m.name, formatValue(m.value), m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s # %s\n", r.workload, n)
	}
	fmt.Fprintf(w, "%s # %d operation(s), %d failed\n", r.workload, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s # failure: %s\n", r.workload, p)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// summary is the machine-readable last line of a run.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueEntry `json:"metrics"`
}

type valueEntry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds results into one summary. With several workloads the
// metric names are prefixed with the workload name.
func summarize(results []*result) summary {
	s := summary{Metrics: map[string]valueEntry{}}
	for _, r := range results {
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, m := range r.metrics {
			name := m.name
			if len(results) > 1 {
				name = r.workload + "." + m.name
			}
			s.Metrics[name] = valueEntry{m.value, m.unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perSecond is the rate of operations whose durations, in
// milliseconds, are ms: one client's throughput, without the harness's
// work between operations.
func perSecond(ms []float64) float64 {
	var total float64
	for _, v := range ms {
		total += v
	}
	return float64(len(ms)) / (total / 1000)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the A/A spreads printed here match the ones used to judge
// the benchmark's steadiness. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail returns the highest of the 99th and 90th percentiles that has at
// least ten samples beyond it, and its label; ok is false when neither
// has.
func tail(xs []float64) (label string, v float64, ok bool) {
	for _, p := range []float64{99, 90} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return fmt.Sprintf("p%.0f", p), percentile(xs, p), true
		}
	}
	return "", 0, false
}
