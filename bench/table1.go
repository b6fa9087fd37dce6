package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/mops"
	"rasc/internal/pdm"
	"rasc/internal/spec"
	"rasc/internal/synth"
)

// table1Program is one executable of a Table 1 package.
type table1Program struct {
	row  string // short row name: vixiecron, at, sendmail, apache
	src  string
	prog *minic.Program
}

// table1Programs generates the six Table 1 programs (VixieCron ×2, At ×2,
// Sendmail, Apache) at the paper's sizes. Seed 0 gives the programs the
// repository's Table 1 benchmark uses; other seeds shift every
// generator seed, keeping each program's size and pattern counts.
func table1Programs(seed int64) []table1Program {
	var out []table1Program
	for _, row := range synth.Table1() {
		for p := 0; p < row.Programs; p++ {
			cfg := row.Config
			cfg.Seed += int64(p)*1000 + seed*1_000_003
			out = append(out, table1Program{
				row: strings.ToLower(strings.Fields(row.Name)[0]),
				src: synth.Generate(cfg),
			})
		}
	}
	return out
}

// parseAll parses every program's source, the checker's set-up.
func parseAll(progs []table1Program) error {
	for i := range progs {
		p, err := minic.Parse(progs[i].src)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", progs[i].row, err)
		}
		progs[i].prog = p
	}
	return nil
}

// table1Property is the full 11-state process-privilege property.
type table1Property struct {
	prop   *spec.Property
	events *minic.EventMap
}

func newTable1Property() table1Property {
	return table1Property{pdm.FullPrivilegeProperty(), pdm.FullPrivilegeEvents()}
}

// check runs pdm.Check, the paper's checker API, on one program.
func (tp table1Property) check(p *minic.Program) (*pdm.Result, error) {
	return pdm.Check(p, tp.prop, tp.events, "", core.Options{})
}

// oracle returns every program's verdict by MOPS-style post*
// reachability, an engine independent of the constraint solver, from rc
// when an earlier run of the same code computed them.
func (tp table1Property) oracle(rc *refCache, progs []table1Program) ([]bool, error) {
	var input []string
	for _, p := range progs {
		input = append(input, p.src)
	}
	want := make([]bool, len(progs))
	err := rc.load("mops", input, &want, func() error {
		for i, p := range progs {
			res, err := mops.Check(p.prog, tp.prop, tp.events, "")
			if err != nil {
				return fmt.Errorf("mops %s: %w", p.row, err)
			}
			want[i] = res.Violating
		}
		return nil
	})
	return want, err
}

// runTable1 measures the paper's Table 1 in-process: one operation is a
// pass of pdm.Check over the six programs with the full privilege
// property. Parsing is the set-up and stays outside the timer, as in the
// paper.
func runTable1(cfg config, r *result) error {
	progs := table1Programs(cfg.seed)
	tp := newTable1Property()
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	setup, err := cal.setups(setupRepeats, func(int) (time.Duration, error) {
		start := time.Now()
		err := parseAll(progs)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}

	// A pass times each program's check from the same heap, as if each
	// were checked by a run of its own, as the paper checks each
	// executable separately.
	pass := func() (time.Duration, []bool, error) {
		verdicts := make([]bool, len(progs))
		var total time.Duration
		for i, p := range progs {
			runtime.GC()
			start := time.Now()
			res, err := tp.check(p.prog)
			total += time.Since(start)
			if err != nil {
				return 0, nil, fmt.Errorf("pdm %s: %w", p.row, err)
			}
			verdicts[i] = len(res.Violations) > 0
		}
		return total, verdicts, nil
	}
	type outcome struct {
		verdicts []bool
		err      error
	}
	_, v, err := pass() // warm-up, discarded but checked
	outcomes := []outcome{{v, err}}
	raw, passes, err := cal.loop(cfg.seconds, func() (time.Duration, bool) {
		d, v, err := pass()
		outcomes = append(outcomes, outcome{v, err})
		return d, err == nil
	})
	if err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}

	// The reference verdicts come after the RSS reading, so that it is
	// the checker's own even when they have to be computed.
	want, err := tp.oracle(cfg.refs, progs)
	if err != nil {
		return err
	}
	for _, o := range outcomes {
		err := o.err
		if err == nil {
			err = compareVerdicts(progs, o.verdicts, want)
		}
		r.check(err)
	}
	if len(passes) == 0 {
		return fmt.Errorf("no pass succeeded")
	}
	r.endToEnd(cal, raw, passes, perSecond(passes), float64(ru.Maxrss)/1024, 1, setup)
	violating := 0
	for _, v := range want {
		if v {
			violating++
		}
	}
	r.notef("%d of %d programs violate the property", violating, len(want))
	return nil
}

func compareVerdicts(progs []table1Program, got, want []bool) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("table1 %s program %d: pdm verdict %v, mops %v", progs[i].row, i, got[i], want[i])
		}
	}
	return nil
}
