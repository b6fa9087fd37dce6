// Command benchgen emits synthetic mini-C workloads (the Table 1
// substitution programs and taint workloads) to stdout.
//
// Usage:
//
//	benchgen [-kind priv|taint|go] [-seed N] [-functions N] [-stmts N]
//	         [-unsafe N] [-full]
//	benchgen -kind go -gofiles 8 -outdir dir   # multi-file Go package
//	benchgen -row "Sendmail 8.12.8"      # a Table 1 package's program
//	benchgen -list                        # list Table 1 rows
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rasc/internal/synth"
)

func main() {
	kind := flag.String("kind", "priv", "workload kind: priv or taint")
	seed := flag.Int64("seed", 1, "random seed")
	functions := flag.Int("functions", 10, "number of functions")
	stmts := flag.Int("stmts", 30, "statements per function")
	unsafe := flag.Int("unsafe", 1, "injected violations")
	safe := flag.Int("safe", 3, "injected safe patterns")
	full := flag.Bool("full", false, "use the full (11-state) property vocabulary")
	row := flag.String("row", "", "generate a named Table 1 package program")
	gofiles := flag.Int("gofiles", 4, "number of Go files (-kind go)")
	outdir := flag.String("outdir", "", "write -kind go files into this directory")
	list := flag.Bool("list", false, "list Table 1 rows")
	flag.Parse()

	if *list {
		for _, r := range synth.Table1() {
			fmt.Printf("%-18s %6d lines, %d program(s)\n", r.Name, r.Lines, r.Programs)
		}
		return
	}
	if *row != "" {
		for _, r := range synth.Table1() {
			if r.Name == *row {
				fmt.Print(synth.Generate(r.Config))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "benchgen: unknown row %q (try -list)\n", *row)
		os.Exit(1)
	}
	switch *kind {
	case "priv":
		fmt.Print(synth.Generate(synth.Config{
			Seed: *seed, Functions: *functions, StmtsPerFn: *stmts,
			CallProb: 0.12, BranchProb: 0.15, LoopProb: 0.06,
			SafePatterns: *safe, UnsafePatterns: *unsafe, FullProperty: *full,
		}))
	case "taint":
		fmt.Print(synth.GenerateTaint(synth.TaintConfig{
			Seed: *seed, Functions: *functions, StmtsPerFn: *stmts,
			CallProb: 0.12, Tainted: *unsafe, Cleaned: *safe,
		}))
	case "go":
		files := synth.GenerateGo(synth.GoConfig{
			Seed:          *seed,
			Files:         *gofiles,
			FuncsPerFile:  *functions,
			StmtsPerFn:    *stmts,
			UnsafePerFile: *unsafe,
		})
		if *outdir == "" {
			for _, f := range files {
				fmt.Printf("// ---- %s ----\n%s", f.Name, f.Src)
			}
			return
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		for _, f := range files {
			path := filepath.Join(*outdir, f.Name)
			if err := os.WriteFile(path, []byte(f.Src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchgen:", err)
				os.Exit(1)
			}
			fmt.Println(path)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgen: unknown kind", *kind)
		os.Exit(2)
	}
}
