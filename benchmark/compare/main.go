// Command compare sets one set of benchmark invocations against another:
//
//	go run ./compare A/results.json B/results.json
//	go run ./compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// A is the base. Each side is one results.json or a comma-separated list of
// them (three or more per side give the run-to-run spread the verdict
// needs). It prints one row per workload and end-to-end metric and exits
// non-zero when a metric regressed or more operations failed.
package main

import (
	"fmt"
	"os"
	"strings"

	"mtask/benchmark/report"
)

func load(list string) ([]*report.Results, error) {
	var out []*report.Results
	for _, path := range strings.Split(list, ",") {
		r, err := report.Load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func run(args []string) (regressed bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: compare A/results.json[,more...] B/results.json[,more...]")
	}
	a, err := load(args[0])
	if err != nil {
		return false, err
	}
	b, err := load(args[1])
	if err != nil {
		return false, err
	}
	rows, err := report.Compare(a, b)
	if err != nil {
		return false, err
	}
	fmt.Printf("%-14s %-17s %-5s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3] (runs)", "B median", "B [q1, q3] (runs)", "B/A", "bound", "verdict")
	for _, r := range rows {
		quart := func(s report.Summary) string {
			return fmt.Sprintf("[%.4g, %.4g] (%d)", s.Q1, s.Q3, s.Runs)
		}
		bound := "any"
		if r.Metric.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.Metric.Bound)
		}
		fmt.Printf("%-14s %-17s %-5s %12.5g %25s %12.5g %25s %9.4f %6s  %s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, r.A.Median, quart(r.A), r.B.Median, quart(r.B),
			r.Ratio, bound, r.Verdict)
		if r.Verdict == report.Regressed {
			regressed = true
		}
	}
	return regressed, nil
}

func main() {
	regressed, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}
