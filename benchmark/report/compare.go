package report

import (
	"fmt"
	"math"
)

// Verdicts of one compared (workload, metric) pair.
const (
	OK         = "ok"
	Regressed  = "regressed"
	Unresolved = "unresolved" // run-to-run spread wider than the bound
)

// Summary describes one side's invocations of a metric.
type Summary struct {
	Median, Q1, Q3 float64
	Runs           int
}

// Row is one line of the comparison: side B against base A.
type Row struct {
	Workload string
	Metric   Metric
	A, B     Summary
	// Ratio is B's median over A's (the base).
	Ratio   float64
	Verdict string
}

func summarize(values []float64) Summary {
	q1, q3 := Quartiles(values)
	return Summary{Median: Median(values), Q1: q1, Q3: q3, Runs: len(values)}
}

// judge applies the benchmark's rule to one metric: B regressed when its
// median is worse than A's by more than the bound; when either side's
// spread is wider than the bound the pair is unresolved, unless every run
// of B reads better than every run of A.
func judge(m Metric, a, b []float64) string {
	sign := 1.0 // worse = larger
	if m.Better == "higher" {
		sign = -1
	}
	if Spread(a) > m.Bound || Spread(b) > m.Bound {
		worstB, bestA := math.Inf(-1), math.Inf(1)
		for _, v := range b {
			worstB = math.Max(worstB, sign*v)
		}
		for _, v := range a {
			bestA = math.Min(bestA, sign*v)
		}
		if worstB < bestA {
			return OK
		}
		return Unresolved
	}
	ma, mb := Median(a), Median(b)
	if sign*(mb-ma) > m.Bound*math.Abs(ma) {
		return Regressed
	}
	return OK
}

// Compare sets B's invocations against A's, one row per workload and
// end-to-end metric plus a failed_ops_share row per workload. Each side is
// one or more invocations of the same workloads; quick (smoke) results are
// refused because their sizes are not the benchmark's.
func Compare(a, b []*Results) ([]Row, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("compare needs at least one results file per side")
	}
	for _, r := range append(append([]*Results(nil), a...), b...) {
		if r.Quick {
			return nil, fmt.Errorf("refusing to compare a -quick result: its sizes are not the benchmark's")
		}
	}
	collect := func(side []*Results, workload string, pick func(*WorkloadResult) (float64, bool)) ([]float64, error) {
		var vals []float64
		for _, r := range side {
			found := false
			for i := range r.Workloads {
				if r.Workloads[i].Name != workload {
					continue
				}
				v, ok := pick(&r.Workloads[i])
				if !ok {
					return nil, fmt.Errorf("workload %s lacks a compared metric", workload)
				}
				vals, found = append(vals, v), true
			}
			if !found {
				return nil, fmt.Errorf("workload %s is missing from one invocation", workload)
			}
		}
		return vals, nil
	}

	// sides collects a metric's values over A's and over B's invocations.
	sides := func(workload string, pick func(*WorkloadResult) (float64, bool)) (va, vb []float64, err error) {
		if va, err = collect(a, workload, pick); err != nil {
			return nil, nil, err
		}
		vb, err = collect(b, workload, pick)
		return va, vb, err
	}

	var rows []Row
	for _, w := range a[0].Workloads {
		for _, m := range EndToEnd {
			va, vb, err := sides(w.Name, func(wr *WorkloadResult) (float64, bool) {
				st, ok := wr.EndToEnd[m.Name]
				return st.Value, ok
			})
			if err != nil {
				return nil, err
			}
			row := Row{Workload: w.Name, Metric: m, A: summarize(va), B: summarize(vb), Verdict: judge(m, va, vb)}
			if row.A.Median != 0 {
				row.Ratio = row.B.Median / row.A.Median
			}
			rows = append(rows, row)
		}
		// Any increase in the share of failed operations is a regression.
		va, vb, err := sides(w.Name, func(wr *WorkloadResult) (float64, bool) { return wr.FailedOpsShare(), true })
		if err != nil {
			return nil, err
		}
		row := Row{
			Workload: w.Name,
			Metric:   Metric{Name: "failed_ops_share", Unit: "ratio", Better: "lower"},
			A:        summarize(va), B: summarize(vb), Verdict: OK,
		}
		if Quantile(vb, 1) > Quantile(va, 1) {
			row.Verdict = Regressed
		}
		rows = append(rows, row)
	}
	return rows, nil
}
