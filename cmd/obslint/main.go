// Command obslint validates gocheck's observability artifacts: the
// Chrome trace-event JSON written by -trace-out (and the daemon's
// flight-recorder dumps), the metrics snapshot written by
// -metrics-json, a Prometheus text exposition scraped from gocheckd's
// /v1/metrics?format=prometheus, and (optionally) that every finding of
// an -explain run's JSON report carries a non-empty provenance chain.
//
// Usage:
//
//	obslint [-trace f.json] [-metrics f.json] [-prometheus f.prom]
//	        [-findings report.json] [-require-provenance]
//
// Exit status is 1 when any named artifact fails validation, 2 on
// usage errors. Flags left empty are skipped, so one invocation can
// check any subset of the artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rasc/internal/obs"
)

func main() {
	trace := flag.String("trace", "", "validate this Chrome trace-event JSON file")
	metrics := flag.String("metrics", "", "validate this metrics snapshot JSON file")
	prometheus := flag.String("prometheus", "", "validate this Prometheus text-format exposition (as scraped from gocheckd /v1/metrics?format=prometheus)")
	findings := flag.String("findings", "", "validate this gocheck -format json report")
	requireProv := flag.Bool("require-provenance", false, "with -findings: every diagnostic must carry a non-empty provenance chain")
	flag.Parse()

	if *trace == "" && *metrics == "" && *prometheus == "" && *findings == "" {
		fmt.Fprintln(os.Stderr, "usage: obslint [-trace f.json] [-metrics f.json] [-prometheus f.prom] [-findings report.json] [-require-provenance]")
		os.Exit(2)
	}

	failed := false
	check := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "obslint: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Printf("obslint: %s: ok\n", name)
	}
	if *trace != "" {
		check(*trace, validateFile(*trace, obs.ValidateTraceJSON))
	}
	if *metrics != "" {
		check(*metrics, validateFile(*metrics, obs.ValidateMetricsJSON))
	}
	if *prometheus != "" {
		check(*prometheus, validateFile(*prometheus, obs.ValidatePrometheus))
	}
	if *findings != "" {
		check(*findings, validateFindings(*findings, *requireProv))
	}
	if failed {
		os.Exit(1)
	}
}

func validateFile(path string, validate func([]byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return validate(data)
}

// validateFindings checks the report parses and, when required, that
// every diagnostic has provenance. It decodes just the fields it
// inspects: the report schema may grow without breaking this tool.
func validateFindings(path string, requireProv bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep struct {
		Diagnostics []struct {
			Checker    string           `json:"checker"`
			File       string           `json:"file"`
			Line       int              `json:"line"`
			Provenance []map[string]any `json:"provenance"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("not a gocheck JSON report: %v", err)
	}
	if !requireProv {
		return nil
	}
	for _, d := range rep.Diagnostics {
		if len(d.Provenance) == 0 {
			return fmt.Errorf("%s finding at %s:%d has no provenance chain", d.Checker, d.File, d.Line)
		}
		for _, hop := range d.Provenance {
			if r, _ := hop["rule"].(string); r == "" {
				return fmt.Errorf("%s finding at %s:%d has a provenance hop without a rule", d.Checker, d.File, d.Line)
			}
		}
	}
	return nil
}
