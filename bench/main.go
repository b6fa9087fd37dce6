// Command bench is the checker's benchmark: six workloads over the
// one-shot CLI (gocheck), the daemon (gocheckd) and the paper's Table 1,
// with end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. See README.md for what each workload and metric is
// for. Run it from the repository root through its wrapper, which
// builds it:
//
//	bash bench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                  # every workload
//	bash bench/run.sh --workload table1 --aa 5  # A/A spread over 5 seeds
//
// It prints one `workload metric value unit n=samples` line per metric
// and, as its last line, a JSON summary:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloads in the order `--workload all` runs them.
var workloads = []string{"cold", "warm", "incr", "server-novel", "server-flip", "table1"}

// config is one workload run's settings.
type config struct {
	root     string // repository root: go.mod, cmd/, internal/
	workload string
	seed     int64
	seconds  time.Duration // measured time
	files    int           // Go corpus size
	traced   bool
	traceOut string // traced runs: the Chrome trace file
	refs     *refCache
}

// corpusFiles is the Go corpus size: 16 files × 8 functions × 30
// statements, about 16k lines, 176 functions and 16 entry functions.
const corpusFiles = 16

func main() {
	if os.Getenv(referenceEnv) == "1" {
		referenceJob()
		return
	}
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload: "+strings.Join(workloads, ", ")+" or all")
	seed := flag.Int64("seed", 1, "workload seed; the corpus, the edit streams and the Table 1 programs derive from it")
	seconds := flag.Float64("seconds", 10, "measured time of one workload run")
	trace := flag.Int("trace", 0, "1 runs the traced layer walk and reports per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1, the Chrome trace file (default .bench_build/trace-WORKLOAD-seedN.json)")
	jsonOut := flag.String("json", "", "also write the JSON summary to this file")
	aa := flag.Int("aa", 0, "A/A calibration: run each selected workload this many times, on seeds seed, seed+1, …, and print every metric's spread")
	flag.Parse()

	selected := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloads, ", "))
			return 2
		}
		selected = []string{*workload}
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	// On a signal, every child dies and nothing new starts, so the work
	// fails and unwinds, and this goroutine removes the scratch
	// directories on its way out. Should it hang instead, the signal
	// handler cleans up itself.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.stop()
		time.Sleep(10 * time.Second)
		live.cleanup()
		os.Exit(1)
	}()
	defer live.cleanup()

	base := config{
		root:    ".",
		seconds: time.Duration(*seconds * float64(time.Second)),
		files:   corpusFiles,
		traced:  *trace == 1,
	}
	refs, err := openRefCache(base.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	base.refs = refs
	if *aa > 0 {
		return calibrate(base, selected, *seed, *aa)
	}
	var results []*result
	for _, w := range selected {
		cfg := base
		cfg.workload, cfg.seed, cfg.traceOut = w, *seed, *traceOut
		if cfg.traced && (cfg.traceOut == "" || len(selected) > 1) {
			cfg.traceOut = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w, *seed))
		}
		r, err := runWorkload(cfg)
		if err == nil && live.stopped() {
			err = errStopping
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		r.print(os.Stdout)
		results = append(results, r)
	}
	line, err := json.Marshal(summarize(results))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("%s\n", line)
	return 0
}

// runWorkload runs one workload, untraced or traced.
func runWorkload(cfg config) (*result, error) {
	r := &result{workload: cfg.workload}
	var err error
	switch {
	case cfg.traced:
		err = runTraced(cfg, r)
	case cfg.workload == "table1":
		err = runTable1(cfg, r)
	case strings.HasPrefix(cfg.workload, "server-"):
		err = runServer(cfg, r)
	default:
		err = runCLI(cfg, r)
	}
	return r, err
}

// calibrate is the A/A check: the same code run k times per workload, on
// k seeds, printing each metric's median, quartiles, the interquartile
// range as a share of the median, and the largest deviation from the
// median as a share of it. Bounds in BENCHMARK.json are set from these.
func calibrate(base config, selected []string, seed int64, k int) int {
	for _, w := range selected {
		values := map[string][]float64{}
		var order []string
		units := map[string]string{}
		for i := range k {
			cfg := base
			cfg.workload, cfg.seed = w, seed+int64(i)
			cfg.traceOut = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w, cfg.seed))
			r, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w, cfg.seed, err)
				return 1
			}
			if r.failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n", w, cfg.seed, r.failed, r.attempted)
				return 1
			}
			for _, m := range r.metrics {
				if _, seen := values[m.name]; !seen {
					order = append(order, m.name)
				}
				values[m.name] = append(values[m.name], m.value)
				units[m.name] = m.unit
			}
		}
		fmt.Printf("%-14s %-32s %14s %14s %14s %9s %9s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "maxdev")
		for _, name := range order {
			vs := values[name]
			med := median(vs)
			q1, q3 := med, med
			if len(vs) > 1 {
				q1, q3 = quartiles(vs)
			}
			var dev float64
			for _, v := range vs {
				dev = max(dev, math.Abs(v-med))
			}
			fmt.Printf("%-14s %-32s %14.4f %14.4f %14.4f %9.4f %9.4f %s\n",
				w, name, med, q1, q3, share(q3-q1, med), share(dev, med), units[name])
		}
	}
	return 0
}

func share(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return x / math.Abs(of)
}
