package ode

// Table 1 of the paper lists the collective communication operations
// executed for one time step of the ODE solvers in the data-parallel (dp)
// and task-parallel (tp) program versions. The functions below return the
// corresponding counts of this reproduction's implementations so the
// instrumented runtime can be checked against them; TableRow records both
// the paper's formula and ours, with any accounting difference, for
// EXPERIMENTS.md.

// OpCounts are per-time-step collective counts. Group and orthogonal
// counts are totals over all groups/sets; PerGroup* are the per-group
// numbers Table 1 reports ("the communication operations for one of the
// disjoint groups of cores are listed").
type OpCounts struct {
	GlobalTag, GlobalTbc int
	GroupTag, GroupTbc   int
	OrthoTag             int
	Redist               int
}

// EPOLCountsDP returns the per-step counts of the data-parallel EPOL
// version: R(R+1)/2 global multi-broadcasts (paper: identical).
func EPOLCountsDP(r int) OpCounts {
	return OpCounts{GlobalTag: r * (r + 1) / 2}
}

// EPOLCountsTP returns the per-step counts of the task-parallel EPOL
// version with g groups: R(R+1)/2 group multi-broadcasts in total (for the
// paper's g = R/2 pairing that is (R+1) per group, matching Table 1), one
// global broadcast for the step decision, and one re-distribution per
// orthogonal position (q sets), which the paper accounts separately.
func EPOLCountsTP(r, g, q int) OpCounts {
	return OpCounts{
		GroupTag:  r * (r + 1) / 2,
		GlobalTbc: 1,
		Redist:    q,
	}
}

// IRKCountsDP returns the per-step counts of the data-parallel IRK
// version: (K*m + 1) global multi-broadcasts (paper: identical).
func IRKCountsDP(k, m int) OpCounts {
	return OpCounts{GlobalTag: k*m + 1}
}

// IRKCountsTP returns the per-step counts of the task-parallel IRK
// version with K groups of q cores: 1 global multi-broadcast, m group
// multi-broadcasts per group (paper: identical) and m orthogonal
// multi-broadcasts per orthogonal set (paper: identical per set).
func IRKCountsTP(k, m, q int) OpCounts {
	return OpCounts{
		GlobalTag: 1,
		GroupTag:  m * k,
		OrthoTag:  m * q,
	}
}

// PABCountsDP returns the per-step counts of the data-parallel PAB (m=0)
// or PABM (m>0) version: K*(1+m) global multi-broadcasts (paper:
// identical; K*Tag for PAB, K(1+m)*Tag for PABM).
func PABCountsDP(k, m int) OpCounts {
	return OpCounts{GlobalTag: k * (1 + m)}
}

// PABCountsTP returns the per-step counts of the task-parallel PAB/PABM
// version with K groups of q cores: (1+m) group multi-broadcasts per group
// and one orthogonal multi-broadcast per set (paper: identical).
func PABCountsTP(k, m, q int) OpCounts {
	return OpCounts{
		GroupTag: k * (1 + m),
		OrthoTag: q,
	}
}

// TableRow describes one row of Table 1: the paper's formula and this
// implementation's counts, for the EXPERIMENTS.md record.
type TableRow struct {
	Benchmark string
	Paper     string // the paper's formula
	Ours      string // this implementation's formula
	Deviation string // accounting difference, if any
}

// Table1 returns the full table of rows for the report.
func Table1() []TableRow {
	return []TableRow{
		{"EPOL(dp)", "global: R(R+1)/2 Tag", "global: R(R+1)/2 Tag", ""},
		{"EPOL(tp)", "global: 1 Tbc; group: (R+1) Tag", "global: 1 Tbc; group: (R+1) Tag per group (g=R/2)", "re-distributions counted separately (OpRedist)"},
		{"IRK(dp)", "global: (K m+1) Tag", "global: (K m+1) Tag", ""},
		{"IRK(tp)", "global: 1 Tag; group: m Tag; ortho: m Tag", "global: 1 Tag; group: m Tag per group; ortho: m Tag per set", ""},
		{"DIIRK(dp)", "global: 1 Tag + K(n-1)I Tbc", "global: (1+K I) Tag + K n I Tbc", "Gauss-Jordan uses n pivot broadcasts (paper's GE: n-1); stage update replicated with one Tag per solve"},
		{"DIIRK(tp)", "global: 1 Tag; group: (n-1)I Tbc; ortho: I Tag", "global: 1 Tag; group: n I Tbc + I Tag per group; ortho: I Tag per set", "same solver accounting difference"},
		{"PAB(dp)", "global: K Tag", "global: K Tag", ""},
		{"PAB(tp)", "group: 1 Tag; ortho: 1 Tag", "group: 1 Tag per group; ortho: 1 Tag per set", ""},
		{"PABM(dp)", "global: K(1+m) Tag", "global: K(1+m) Tag", ""},
		{"PABM(tp)", "group: (1+m) Tag; ortho: 1 Tag", "group: (1+m) Tag per group; ortho: 1 Tag per set", ""},
	}
}
