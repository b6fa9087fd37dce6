// Command mopscheck model-checks mini-C programs against temporal safety
// properties, with both engines of §8:
//
//   - the regularly-annotated-set-constraint engine (the paper's
//     contribution; package pdm), and
//   - the post*-saturation pushdown checker (the MOPS baseline; package
//     mops).
//
// Usage:
//
//	mopscheck [-prop simple|full|taint|file.spec] [-engine rasc|mops|both] prog.c
//	mopscheck -table1
//
// -table1 regenerates Table 1: it generates the four synthetic packages at
// the paper's sizes, checks each executable with both engines against the
// full privilege property, and prints the timing table. It exits 1 when
// the engines disagree on some executable's verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rasc/internal/bitvector"
	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/mops"
	"rasc/internal/pdm"
	"rasc/internal/spec"
	"rasc/internal/synth"
)

func main() {
	propFlag := flag.String("prop", "simple", "property: simple, full, taint, chroot, tempfile, or a .spec file")
	engine := flag.String("engine", "both", "engine: rasc, mops or both")
	entry := flag.String("entry", "main", "entry function")
	table1 := flag.Bool("table1", false, "regenerate Table 1 on synthetic packages")
	chop := flag.String("chop", "", "report the danger points (statements on some violating path) of the named function instead of checking")
	chopExact := flag.Bool("chop-exact", false, "report the exact interprocedural chop (post* ∩ pre*) instead of checking")
	flag.Parse()

	if *table1 {
		if n := runTable1(); n > 0 {
			fmt.Fprintf(os.Stderr, "mopscheck: the engines disagree on %d program(s)\n", n)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mopscheck [flags] prog.c  |  mopscheck -table1")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := minic.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	prop, events, err := resolveProperty(*propFlag)
	if err != nil {
		fatal(err)
	}

	if *chopExact {
		lines, err := mops.ChopLines(prog, prop, events, *entry)
		if err != nil {
			fatal(err)
		}
		if len(lines) == 0 {
			fmt.Println("no statement lies on a violating run")
			return
		}
		fmt.Println("statements on violating runs (post* ∩ pre*):")
		for _, l := range lines {
			fmt.Printf("  %s:%d\n", flag.Arg(0), l)
		}
		os.Exit(3)
	}
	if *chop != "" {
		lines, err := pdm.DangerLines(prog, prop, events, *chop)
		if err != nil {
			fatal(err)
		}
		if len(lines) == 0 {
			fmt.Printf("%s: no statement lies on a violating path\n", *chop)
			return
		}
		fmt.Printf("%s: statements on violating paths (forward ∩ backward chop):\n", *chop)
		for _, l := range lines {
			fmt.Printf("  %s:%d\n", flag.Arg(0), l)
		}
		os.Exit(3)
	}

	violating := false
	if *engine == "rasc" || *engine == "both" {
		t0 := time.Now()
		res, err := pdm.Check(prog, prop, events, *entry, core.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rasc: %d violation(s) in %v\n", len(res.Violations), time.Since(t0).Round(time.Millisecond))
		for _, v := range res.Violations {
			fmt.Println(" ", v)
			for _, tp := range v.Trace {
				arrow := "->"
				if tp.Enter {
					arrow = "=> call"
				}
				fmt.Printf("      %s %s:%d\n", arrow, tp.Fn, tp.Line)
			}
		}
		violating = violating || len(res.Violations) > 0
	}
	if *engine == "mops" || *engine == "both" {
		t0 := time.Now()
		res, err := mops.Check(prog, prop, events, *entry)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mops: violating=%v (%d error nodes) in %v\n",
			res.Violating, len(res.ErrorNodes), time.Since(t0).Round(time.Millisecond))
		violating = violating || res.Violating
	}
	if violating {
		os.Exit(3)
	}
}

func resolveProperty(name string) (*spec.Property, *minic.EventMap, error) {
	switch name {
	case "simple":
		return pdm.SimplePrivilegeProperty(), minic.PrivilegeEvents(), nil
	case "full":
		return pdm.FullPrivilegeProperty(), pdm.FullPrivilegeEvents(), nil
	case "taint":
		return bitvector.TaintProperty(), bitvector.TaintEvents(), nil
	case "chroot":
		return pdm.ChrootProperty(), pdm.ChrootEvents(), nil
	case "tempfile":
		return pdm.TempFileProperty(), pdm.TempFileEvents(), nil
	default:
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		prop, err := spec.Compile(string(src), spec.Options{})
		if err != nil {
			return nil, nil, err
		}
		// Custom specs use the full privilege event mapping by default.
		return prop, pdm.FullPrivilegeEvents(), nil
	}
}

// runTable1 prints Table 1 and returns the number of programs on whose
// verdict the two engines disagree.
func runTable1() (disagree int) {
	prop := pdm.FullPrivilegeProperty()
	events := pdm.FullPrivilegeEvents()
	fmt.Printf("%-18s %6s %9s %12s %12s\n", "Benchmark", "Size", "Programs", "RASC (s)", "MOPS (s)")
	for _, row := range synth.Table1() {
		var tRasc, tMops time.Duration
		anyViol := false
		for p := 0; p < row.Programs; p++ {
			cfg := row.Config
			cfg.Seed += int64(p) * 1000
			prog, err := minic.Parse(synth.Generate(cfg))
			if err != nil {
				fatal(err)
			}
			t0 := time.Now()
			res, err := pdm.Check(prog, prop, events, "", core.Options{})
			if err != nil {
				fatal(err)
			}
			tRasc += time.Since(t0)
			t0 = time.Now()
			mres, err := mops.Check(prog, prop, events, "")
			if err != nil {
				fatal(err)
			}
			tMops += time.Since(t0)
			if (len(res.Violations) > 0) != mres.Violating {
				fmt.Fprintf(os.Stderr, "WARNING: engines disagree on %s program %d\n", row.Name, p)
				disagree++
			}
			anyViol = anyViol || mres.Violating
		}
		fmt.Printf("%-18s %5dk %9d %12.2f %12.2f   violating=%v\n",
			row.Name, row.Lines/1000, row.Programs,
			tRasc.Seconds(), tMops.Seconds(), anyViol)
	}
	return disagree
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mopscheck:", err)
	os.Exit(1)
}
