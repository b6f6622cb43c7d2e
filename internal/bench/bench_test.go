package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableFormatAndAccessors(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", XLabel: "n", YLabel: "t"}
	tab.AddPoint("a", 1, 10)
	tab.AddPoint("a", 2, 20)
	tab.AddPoint("b", 1, 5)
	if y, ok := tab.Get("a", 2); !ok || y != 20 {
		t.Fatalf("Get = %v %v", y, ok)
	}
	if _, ok := tab.Get("a", 3); ok {
		t.Fatal("missing point found")
	}
	if best := tab.Best(1); best != "b" {
		t.Fatalf("Best = %q", best)
	}
	out := tab.Format()
	for _, want := range []string{"demo", "a", "b", "10", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	rows := &Table{ID: "r", Title: "rows", Header: []string{"k", "v"},
		Rows: [][]string{{"alpha", "1"}}, Notes: []string{"hello"}}
	out = rows.Format()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "note: hello") {
		t.Fatalf("row format wrong:\n%s", out)
	}
}

func smallFig13() Fig13Params {
	return Fig13Params{Cores: []int{32, 64}, N: 40000, Steps: 2, Eval: 600}
}

func TestFig13ShapesSmall(t *testing.T) {
	left, err := Fig13Left(smallFig13())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{32, 64} {
		dp, _ := left.Get("data-parallel", p)
		tp, _ := left.Get("task-parallel", p)
		cpr, _ := left.Get("CPR", p)
		if !(tp > dp) {
			t.Errorf("PABM @%g: tp speedup %g not above dp %g", p, tp, dp)
		}
		// CPR tracks the layer-based schedule (within 2x).
		if cpr < tp/2 {
			t.Errorf("PABM @%g: CPR %g far below tp %g", p, cpr, tp)
		}
	}

	right, err := Fig13Right(smallFig13())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{32, 64} {
		tp, _ := right.Get("task-parallel", p)
		cpr, _ := right.Get("CPR", p)
		cpa, _ := right.Get("CPA", p)
		if !(cpr > tp) {
			t.Errorf("EPOL @%g: CPR %g should be slower than tp %g", p, cpr, tp)
		}
		if cpa < tp*0.5 {
			t.Errorf("EPOL @%g: implausible CPA %g vs tp %g", p, cpa, tp)
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	params := Fig14Params{Cores: 64, Sizes: []int{4 << 10, 64 << 10}}
	left, err := Fig14Left(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range params.Sizes {
		c, _ := left.Get("consecutive", float64(size))
		m, _ := left.Get("mixed(d=2)", float64(size))
		s, _ := left.Get("scattered", float64(size))
		if !(c < m && m < s) {
			t.Errorf("allgather @%d: order wrong: %g %g %g", size, c, m, s)
		}
	}
	right, err := Fig14Right(params)
	if err != nil {
		t.Fatal(err)
	}
	size := float64(params.Sizes[1])
	cg, _ := right.Get("consecutive-4x16", size)
	sg, _ := right.Get("scattered-4x16", size)
	co, _ := right.Get("consecutive-16x4", size)
	so, _ := right.Get("scattered-16x4", size)
	if !(cg < sg) {
		t.Errorf("group-based: consecutive %g should beat scattered %g", cg, sg)
	}
	if !(so < co) {
		t.Errorf("orthogonal: scattered %g should beat consecutive %g", so, co)
	}
}

func TestFig15ShapesSmall(t *testing.T) {
	params := Fig15Params{
		Cores: []int{32, 64}, N: 100000,
		DenseN: 256, DIIRKCores: 64, EPOLCores: 64,
		SizeSweep: []int{50000, 100000},
	}
	tables, err := Fig15(params)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Table{}
	for _, tab := range tables {
		byID[tab.ID] = tab
	}
	irk := byID["fig15-irk-chic"]
	for _, p := range []float64{32, 64} {
		c, _ := irk.Get("consecutive", p)
		s, _ := irk.Get("scattered", p)
		dp, _ := irk.Get("data-parallel", p)
		if !(c < s) {
			t.Errorf("IRK @%g: consecutive %g should beat scattered %g", p, c, s)
		}
		if !(c < dp) {
			t.Errorf("IRK @%g: tp %g should beat dp %g", p, c, dp)
		}
	}
	diirk := byID["fig15-diirk-chic"]
	for _, s := range diirk.Series {
		if s.Label == "data-parallel" {
			continue
		}
		for i, x := range s.X {
			dp, _ := diirk.Get("data-parallel", x)
			if !(s.Y[i] < dp) {
				t.Errorf("DIIRK %s @%g: tp %g should beat dp %g", s.Label, x, s.Y[i], dp)
			}
		}
	}
	epol := byID["fig15-epol-juropa"]
	for _, x := range []float64{50000, 100000} {
		c, _ := epol.Get("consecutive", x)
		m4, _ := epol.Get("mixed(d=4)", x)
		if !(c < m4) {
			t.Errorf("EPOL @%g: consecutive %g should beat mixed(4) %g", x, c, m4)
		}
	}
}

func TestFig16ShapesSmall(t *testing.T) {
	params := Fig16Params{Cores: []int{64, 128, 256}, N: 100000, DenseN: 8000}
	tables, err := Fig16(params)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Table{}
	for _, tab := range tables {
		byID[tab.ID] = tab
	}
	pabm := byID["fig16-pabm-chic"]
	// tp consecutive outgrows dp with the core count.
	dpGain, _ := pabm.Get("data-parallel", 256)
	dpBase, _ := pabm.Get("data-parallel", 64)
	tpGain, _ := pabm.Get("consecutive", 256)
	tpBase, _ := pabm.Get("consecutive", 64)
	if !(tpGain/tpBase > dpGain/dpBase) {
		t.Errorf("PABM: tp scaling %g/%g not above dp %g/%g", tpGain, tpBase, dpGain, dpBase)
	}
	if !(tpGain > dpGain) {
		t.Errorf("PABM @256: tp speedup %g not above dp %g", tpGain, dpGain)
	}
	pab := byID["fig16-pab-chic"]
	for _, p := range []float64{64, 256} {
		c, _ := pab.Get("consecutive", p)
		s, _ := pab.Get("scattered", p)
		dp, _ := pab.Get("data-parallel", p)
		if !(c < s && c < dp) {
			t.Errorf("PAB @%g: consecutive %g vs scattered %g vs dp %g", p, c, s, dp)
		}
	}
}

func TestFig17ShapesSmall(t *testing.T) {
	params := Fig17Params{Groups: []int{1, 4, 16, 64, 256}, CoresCHiC: 256, CoresAltix: 128, Steps: 2}
	tables, err := Fig17(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if len(tab.Series) == 0 {
			t.Fatalf("%s: empty", tab.ID)
		}
		// Few groups must be uncompetitive against the best.
		for _, s := range tab.Series {
			if len(s.Y) < 3 {
				continue
			}
			best := s.Y[0]
			for _, y := range s.Y {
				if y > best {
					best = y
				}
			}
			if !(best > 2*s.Y[0]) {
				t.Errorf("%s %s: best %g not well above 4-group %g", tab.ID, s.Label, best, s.Y[0])
			}
		}
	}
	// BT-MZ on CHiC: the maximum group count is not the best (load
	// imbalance dome).
	for _, tab := range tables {
		if tab.ID != "fig17-btmz-chic" {
			continue
		}
		s := tab.Series[0]
		last := s.Y[len(s.Y)-1]
		best := last
		for _, y := range s.Y {
			if y > best {
				best = y
			}
		}
		if !(best > last*1.05) {
			t.Errorf("BT-MZ: max groups %g should lose to best %g", last, best)
		}
	}
}

func TestFig18ShapesSmall(t *testing.T) {
	params := Fig18Params{Cores: []int{64, 128}, N: 100000, Eval: 600}
	tables, err := Fig18(params)
	if err != nil {
		t.Fatal(err)
	}
	irk, diirk := tables[0], tables[1]
	for _, p := range []float64{64, 128} {
		mpi, _ := irk.Get("dp-MPI", p)
		hyb, _ := irk.Get("dp-hybrid", p)
		if !(hyb > mpi) {
			t.Errorf("IRK dp @%g: hybrid speedup %g not above MPI %g", p, hyb, mpi)
		}
		dmpi, _ := diirk.Get("dp-MPI", p)
		dhyb, _ := diirk.Get("dp-hybrid", p)
		if !(dhyb > dmpi) {
			t.Errorf("DIIRK dp @%g: hybrid %g should be slower than MPI %g", p, dhyb, dmpi)
		}
		tmpi, _ := diirk.Get("tp-MPI", p)
		if !(tmpi < dmpi) {
			t.Errorf("DIIRK @%g: tp %g should beat dp %g", p, tmpi, dmpi)
		}
	}
}

func TestFig19ShapesSmall(t *testing.T) {
	params := Fig19Params{Cores: 64, Threads: []int{1, 2, 4, 8}, N: 4000}
	tab, err := Fig19(params)
	if err != nil {
		t.Fatal(err)
	}
	// dp improves monotonically towards more threads per rank and is
	// best at one rank.
	one, _ := tab.Get("data-parallel", 1)
	full, _ := tab.Get("data-parallel", 64)
	if !(full < one) {
		t.Errorf("dp: 1x64 threads %g should beat 64x1 %g", full, one)
	}
	// tp beats dp at the pure-MPI end.
	tp1, ok := tab.Get("task-parallel", 1)
	if !ok || !(tp1 < one) {
		t.Errorf("tp %g should beat dp %g at 1 thread", tp1, one)
	}
}

func TestTable1Runs(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("table1 has %d rows", len(tab.Rows))
	}
	// Spot checks against the formulas: EPOL dp = R(R+1)/2 = 10 for
	// R=4; PABM dp = K(1+m) = 16 for K=4, m=3.
	found := map[string]string{}
	for _, row := range tab.Rows {
		found[row[0]+"/"+row[1]] = row[3]
	}
	if got := found["EPOL(dp)/global/allgather"]; got != "10.00" {
		t.Errorf("EPOL dp global Tag = %s, want 10.00", got)
	}
	if got := found["PABM(dp)/global/allgather"]; got != "16.00" {
		t.Errorf("PABM dp global Tag = %s, want 16.00", got)
	}
	if got := found["PAB(tp)/group/allgather (per group)"]; got != "1.00" {
		t.Errorf("PAB tp per-group Tag = %s, want 1.00", got)
	}
}

func TestAblationsSmall(t *testing.T) {
	tables, err := Ablations(AblationParams{Cores: 64, N: 100000})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Table{}
	for _, tab := range tables {
		byID[tab.ID] = tab
	}
	parse := func(tab *Table, row int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][1], 64)
		if err != nil {
			t.Fatalf("%s: bad number %q", tab.ID, tab.Rows[row][1])
		}
		return v
	}
	for _, id := range []string{"ablation-chains", "ablation-adjust", "ablation-lpt", "ablation-mixed-d"} {
		if byID[id] == nil {
			t.Fatalf("ablation %s missing", id)
		}
	}
	chains := byID["ablation-chains"]
	if !(parse(chains, 0) <= parse(chains, 1)) {
		t.Error("chain contraction did not help")
	}
	adjust := byID["ablation-adjust"]
	if !(parse(adjust, 0) < parse(adjust, 1)) {
		t.Error("group adjustment did not help")
	}
	lpt := byID["ablation-lpt"]
	if !(parse(lpt, 0) <= parse(lpt, 1)) {
		t.Error("LPT did not help")
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "j", Title: "json demo", XLabel: "x", YLabel: "y"}
	tab.AddPoint("s", 1, 2)
	data, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{`"id": "j"`, `"label": "s"`, `"x"`, `"y"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}
