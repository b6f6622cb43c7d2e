package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/cost"
	"mtask/internal/graph"
)

func model(nodes int) *cost.Model {
	return &cost.Model{Machine: arch.CHiC().Subset(nodes)}
}

// epolStep builds the M-task graph of one extrapolation time step with R
// approximations (Fig. 4/5): chain i has i micro steps of the given work,
// all chains feed a combine task.
func epolStep(r int, work float64, commBytes int) *graph.Graph {
	g := graph.New("epol-step")
	combine := g.AddTask(&graph.Task{Name: "combine", Kind: graph.KindBasic, Work: work, CommBytes: commBytes, CommCount: 1})
	for i := 1; i <= r; i++ {
		prev := graph.None
		for j := 1; j <= i; j++ {
			s := g.AddTask(&graph.Task{
				Name: "step", Kind: graph.KindBasic,
				Work: work, CommBytes: commBytes, CommCount: 1,
				OutBytes: commBytes,
				Meta:     map[string]int{"i": i, "j": j},
			})
			if prev != graph.None {
				g.MustEdge(prev, s, commBytes)
			}
			prev = s
		}
		g.MustEdge(prev, combine, commBytes)
	}
	g.AddStartStop()
	return g
}

func TestEqualSizes(t *testing.T) {
	tests := []struct {
		p, g int
		want []int
	}{
		{8, 2, []int{4, 4}},
		{8, 3, []int{3, 3, 2}},
		{5, 5, []int{1, 1, 1, 1, 1}},
		{7, 2, []int{4, 3}},
	}
	for _, tt := range tests {
		got := equalSizes(tt.p, tt.g)
		sum := 0
		for i, s := range got {
			if s != tt.want[i] {
				t.Errorf("equalSizes(%d,%d) = %v, want %v", tt.p, tt.g, got, tt.want)
				break
			}
			sum += s
		}
		if sum != tt.p {
			t.Errorf("equalSizes(%d,%d) sums to %d", tt.p, tt.g, sum)
		}
	}
}

func TestProportionalSizes(t *testing.T) {
	sizes := proportionalSizes([]float64{3, 1}, 4, 8)
	if sizes[0] != 6 || sizes[1] != 2 {
		t.Fatalf("proportionalSizes(3:1, 8) = %v, want [6 2]", sizes)
	}
	// A group with (almost) no work keeps at least one core.
	sizes = proportionalSizes([]float64{100, 0.0001}, 100.0001, 4)
	if sizes[1] < 1 {
		t.Fatalf("zero-work group starved: %v", sizes)
	}
	if sizes[0]+sizes[1] != 4 {
		t.Fatalf("sizes %v do not sum to 4", sizes)
	}
}

// TestProportionalGroupSizesRejectsMoreGroupsThanCores: with more groups
// than cores no split keeps the one-core floor. The remainder loop used to
// spin forever looking for a group above the floor, and zero work split
// into zero-core groups; both cases, and no groups at all, are errors.
func TestProportionalGroupSizesRejectsMoreGroupsThanCores(t *testing.T) {
	cases := []struct {
		work []float64
		p    int
		want []int // nil: an error
	}{
		{[]float64{1, 1, 1}, 2, nil},
		{[]float64{0, 0, 0}, 2, nil},
		{nil, 4, nil},
		{[]float64{0, 0, 0}, 3, []int{1, 1, 1}},
		{[]float64{3, 1}, 8, []int{6, 2}},
	}
	for _, c := range cases {
		done := make(chan struct{})
		var sizes []int
		var err error
		go func() {
			defer close(done)
			sizes, err = ProportionalGroupSizes(c.work, c.p)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("ProportionalGroupSizes(%v, %d) did not return", c.work, c.p)
		}
		if (err == nil) != (c.want != nil) || !slices.Equal(sizes, c.want) {
			t.Fatalf("ProportionalGroupSizes(%v, %d) = %v, %v; want %v", c.work, c.p, sizes, err, c.want)
		}
	}
}

func TestProportionalSizesSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := 1 + rng.Intn(8)
		p := g + rng.Intn(64)
		seq := make([]float64, g)
		var total float64
		for i := range seq {
			seq[i] = rng.Float64() * 10
			total += seq[i]
		}
		if total == 0 {
			continue
		}
		sizes := proportionalSizes(seq, total, p)
		sum := 0
		for _, s := range sizes {
			if s < 1 {
				t.Fatalf("size < 1 in %v (p=%d)", sizes, p)
			}
			sum += s
		}
		if sum != p {
			t.Fatalf("sizes %v sum to %d, want %d", sizes, sum, p)
		}
	}
}

func TestScheduleEPOLPairsChains(t *testing.T) {
	// For the extrapolation method, the scheduling algorithm partitions
	// the cores into R/2 subsets, pairing approximations i and R-i+1
	// (Section 4.2). Use compute-dominated tasks so splitting wins on
	// communication but loads must balance.
	const R = 4
	g := epolStep(R, 2e9, 1<<20)
	m := model(16) // 64 cores
	s := &Scheduler{Model: m}
	sched, err := s.Schedule(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sched.Layers) != 2 {
		t.Fatalf("EPOL step has %d layers, want 2", len(sched.Layers))
	}
	first := sched.Layers[0]
	if first.NumGroups() != R/2 {
		t.Fatalf("first layer uses %d groups, want R/2 = %d\n%s", first.NumGroups(), R/2, sched)
	}
	// Each group's chains must have equal accumulated work (i and
	// R-i+1 micro steps pair to R+1).
	for gi, tasks := range first.Groups {
		var w float64
		for _, id := range tasks {
			w += sched.Graph.Task(id).Work
		}
		if math.Abs(w-float64(R+1)*2e9) > 1 {
			t.Fatalf("group %d work = %g, want %g", gi, w, float64(R+1)*2e9)
		}
	}
	// Second layer: the combine task data-parallel on all cores.
	if sched.Layers[1].NumGroups() != 1 {
		t.Fatalf("combine layer uses %d groups", sched.Layers[1].NumGroups())
	}
}

func TestScheduleChainContraction(t *testing.T) {
	g := epolStep(4, 1e9, 1<<18)
	m := model(8)
	s := &Scheduler{Model: m}
	sched, err := s.Schedule(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 4 chains + combine + start/stop = 7 contracted nodes from 12.
	if sched.Graph.Len() != 7 {
		t.Fatalf("contracted graph has %d nodes, want 7", sched.Graph.Len())
	}
	// Ablation: disabling contraction yields more layers (chains can no
	// longer run as one unit).
	s2 := &Scheduler{Model: m, DisableChainContraction: true}
	sched2, err := s2.Schedule(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched2.Layers) <= len(sched.Layers) {
		t.Fatalf("without contraction expected more layers: %d vs %d",
			len(sched2.Layers), len(sched.Layers))
	}
	// Expansion of a contracted node yields the original chain in order.
	for _, ls := range sched.Layers {
		for _, tasks := range ls.Groups {
			for _, id := range tasks {
				src := sched.SourceTasks(id)
				if len(src) == 0 {
					t.Fatal("empty source expansion")
				}
				for k := 1; k < len(src); k++ {
					if !sched.Source.Reachable(src[k-1], src[k]) {
						t.Fatalf("chain members %v out of order", src)
					}
				}
			}
		}
	}
}

func TestDataParallelForcesOneGroup(t *testing.T) {
	g := epolStep(4, 1e9, 1<<18)
	m := model(8)
	sched, err := DataParallel(m, g, 32)
	if err != nil {
		t.Fatal(err)
	}
	for li, ls := range sched.Layers {
		if ls.NumGroups() != 1 {
			t.Fatalf("layer %d has %d groups in dp schedule", li, ls.NumGroups())
		}
		if ls.Sizes[0] != 32 {
			t.Fatalf("dp group size = %d, want 32", ls.Sizes[0])
		}
	}
}

func TestMaxTaskParallel(t *testing.T) {
	g := epolStep(4, 1e9, 1<<18)
	m := model(8)
	sched, err := MaxTaskParallel(m, g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Layers[0].NumGroups(); got != 4 {
		t.Fatalf("max tp first layer groups = %d, want 4", got)
	}
}

func TestSchedulerPicksTaskParallelForCommBound(t *testing.T) {
	// K independent tasks with heavy internal communication: splitting
	// the cores into K groups shrinks each allgather, so Algorithm 1
	// must not choose g=1.
	g := graph.New("irk-layer")
	const K = 4
	for i := 0; i < K; i++ {
		g.AddTask(&graph.Task{
			Name: "stage", Kind: graph.KindBasic,
			Work: 1e8, CommBytes: 1 << 22, CommCount: 8,
		})
	}
	m := model(32) // 128 cores
	s := &Scheduler{Model: m}
	sched, err := s.Schedule(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Layers[0].NumGroups(); got < 2 {
		t.Fatalf("scheduler chose g=%d for comm-bound layer", got)
	}
	// And the predicted time must beat data parallel.
	dp, _ := DataParallel(m, g, 128)
	if sched.Time >= dp.Time {
		t.Fatalf("tp time %g not better than dp %g", sched.Time, dp.Time)
	}
}

func TestSchedulerPicksDataParallelForLoneTask(t *testing.T) {
	g := graph.New("single")
	g.AddTask(&graph.Task{Name: "solo", Kind: graph.KindBasic, Work: 1e9})
	m := model(4)
	s := &Scheduler{Model: m}
	sched, err := s.Schedule(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Layers[0].NumGroups(); got != 1 {
		t.Fatalf("single-task layer got %d groups", got)
	}
}

func TestScheduleErrors(t *testing.T) {
	g := graph.New("g")
	g.AddBasic("a", 1)
	s := &Scheduler{Model: model(1)}
	if _, err := s.Schedule(g, 0); err == nil {
		t.Fatal("P=0 accepted")
	}
	cyc := graph.New("cyc")
	a := cyc.AddBasic("a", 1)
	b := cyc.AddBasic("b", 1)
	cyc.MustEdge(a, b, 0)
	cyc.MustEdge(b, a, 0)
	if _, err := s.Schedule(cyc, 4); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestAdjustmentBalancesUnevenLoad(t *testing.T) {
	// Two independent communication-heavy tasks with work 3:1 on 8
	// cores: the group search picks g=2 (splitting shrinks the
	// collectives), and the adjustment step resizes the equal groups to
	// 6:2 to balance the uneven work.
	g := graph.New("uneven")
	g.AddTask(&graph.Task{Name: "big", Kind: graph.KindBasic, Work: 3e9, CommBytes: 1 << 22, CommCount: 32})
	g.AddTask(&graph.Task{Name: "small", Kind: graph.KindBasic, Work: 1e9, CommBytes: 1 << 22, CommCount: 32})
	m := model(2)
	s := &Scheduler{Model: m}
	sched, err := s.Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ls := sched.Layers[0]
	if ls.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2", ls.NumGroups())
	}
	bigGroup := ls.GroupOf(0)
	if got := ls.Sizes[bigGroup]; got != 6 {
		t.Fatalf("big task group size = %d, want 6\n%s", got, sched)
	}
	// Ablation: without adjustment the sizes stay equal.
	s2 := &Scheduler{Model: m, DisableAdjustment: true}
	sched2, _ := s2.Schedule(g, 8)
	ls2 := sched2.Layers[0]
	if ls2.NumGroups() == 2 && (ls2.Sizes[0] != 4 || ls2.Sizes[1] != 4) {
		t.Fatalf("without adjustment sizes = %v, want [4 4]", ls2.Sizes)
	}
	if sched.Time > sched2.Time {
		t.Fatalf("adjustment worsened time: %g vs %g", sched.Time, sched2.Time)
	}
}

func TestLPTBeatsRoundRobin(t *testing.T) {
	// Tasks with very uneven work: LPT balances, round-robin does not.
	g := graph.New("lpt")
	works := []float64{9e9, 1e9, 8e9, 2e9, 7e9, 3e9}
	for _, w := range works {
		g.AddTask(&graph.Task{Name: "t", Kind: graph.KindBasic, Work: w})
	}
	m := model(2)
	lpt := &Scheduler{Model: m, ForceGroups: 2}
	rr := &Scheduler{Model: m, ForceGroups: 2, RoundRobin: true, DisableAdjustment: true}
	lptS, err := lpt.Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	rrS, err := rr.Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lptS.Time > rrS.Time {
		t.Fatalf("LPT (%g) worse than round-robin (%g)", lptS.Time, rrS.Time)
	}
}

// --- mapping tests ---

func TestSequencesArePermutations(t *testing.T) {
	m := arch.CHiC().Subset(4)
	for _, strat := range []Strategy{Consecutive{}, Scattered{}, Mixed{D: 2}, Mixed{D: 3}} {
		seq := strat.Sequence(m)
		if len(seq) != m.TotalCores() {
			t.Fatalf("%s: sequence length %d, want %d", strat.Name(), len(seq), m.TotalCores())
		}
		seen := make(map[arch.CoreID]bool)
		for _, c := range seq {
			if !m.Contains(c) {
				t.Fatalf("%s: core %v outside machine", strat.Name(), c)
			}
			if seen[c] {
				t.Fatalf("%s: duplicate core %v", strat.Name(), c)
			}
			seen[c] = true
		}
	}
}

func TestConsecutiveSequenceOrder(t *testing.T) {
	m := arch.CHiC().Subset(2)
	seq := Consecutive{}.Sequence(m)
	// First node's four cores come first.
	for i := 0; i < 4; i++ {
		if seq[i].Node != 0 {
			t.Fatalf("consecutive seq[%d] on node %d", i, seq[i].Node)
		}
	}
	if seq[4].Node != 1 {
		t.Fatalf("consecutive seq[4] on node %d, want 1", seq[4].Node)
	}
}

func TestScatteredSequenceOrder(t *testing.T) {
	m := arch.CHiC().Subset(3)
	seq := Scattered{}.Sequence(m)
	// First three entries: core 1.1 of nodes 1, 2, 3.
	for i := 0; i < 3; i++ {
		want := arch.CoreID{Node: i, Proc: 0, Core: 0}
		if seq[i] != want {
			t.Fatalf("scattered seq[%d] = %v, want %v", i, seq[i], want)
		}
	}
}

func TestMixedDegenerateCases(t *testing.T) {
	m := arch.JuRoPA().Subset(3)
	cons := Consecutive{}.Sequence(m)
	scat := Scattered{}.Sequence(m)
	m1 := Mixed{D: 1}.Sequence(m)
	m8 := Mixed{D: 8}.Sequence(m) // 8 = cores per JuRoPA node
	for i := range cons {
		if m8[i] != cons[i] {
			t.Fatalf("mixed(d=cpn) != consecutive at %d: %v vs %v", i, m8[i], cons[i])
		}
		if m1[i] != scat[i] {
			t.Fatalf("mixed(d=1) != scattered at %d: %v vs %v", i, m1[i], scat[i])
		}
	}
	// Out-of-range D values are clamped.
	if got := (Mixed{D: 0}).Sequence(m); got[1] != scat[1] {
		t.Fatal("D=0 not clamped to 1")
	}
	if got := (Mixed{D: 100}).Sequence(m); got[1] != cons[1] {
		t.Fatal("huge D not clamped to cores per node")
	}
}

func TestMixedD2Blocks(t *testing.T) {
	m := arch.CHiC().Subset(2)
	seq := Mixed{D: 2}.Sequence(m)
	// Expected: node0 cores 0,1; node1 cores 0,1; node0 cores 2,3; ...
	want := []arch.CoreID{
		{Node: 0, Proc: 0, Core: 0}, {Node: 0, Proc: 0, Core: 1},
		{Node: 1, Proc: 0, Core: 0}, {Node: 1, Proc: 0, Core: 1},
		{Node: 0, Proc: 1, Core: 0}, {Node: 0, Proc: 1, Core: 1},
		{Node: 1, Proc: 1, Core: 0}, {Node: 1, Proc: 1, Core: 1},
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("mixed(2) seq[%d] = %v, want %v", i, seq[i], want[i])
		}
	}
}

func TestStrategyByName(t *testing.T) {
	for _, name := range []string{"consecutive", "scattered", "mixed:2", "mixed:4"} {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("nil strategy for %q", name)
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestMapDisjointGroups(t *testing.T) {
	g := epolStep(4, 1e9, 1<<18)
	mach := arch.CHiC().Subset(8)
	m := &cost.Model{Machine: mach}
	s := &Scheduler{Model: m}
	sched, err := s.Schedule(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Consecutive{}, Scattered{}, Mixed{D: 2}} {
		mp, err := Map(sched, mach, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if err := mp.Validate(); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		// Every scheduled task must have cores.
		for li, ls := range sched.Layers {
			for _, id := range ls.Layer {
				if len(mp.GroupCores(li, ls.GroupOf(id))) == 0 {
					t.Fatalf("%s: task %d has no cores", strat.Name(), id)
				}
			}
		}
	}
	// Machine too small is rejected.
	if _, err := Map(sched, arch.CHiC().Subset(2), Consecutive{}); err == nil {
		t.Fatal("mapping onto too-small machine accepted")
	}
}

func TestOrthogonalSetsScatteredStayInNode(t *testing.T) {
	// With a scattered mapping of equal groups, the orthogonal sets are
	// node-internal (the basis of Fig 14 right / Section 3.4).
	g := graph.New("layer")
	const K = 4
	for i := 0; i < K; i++ {
		g.AddTask(&graph.Task{Name: "stage", Kind: graph.KindBasic, Work: 1e9, CommBytes: 1 << 20, CommCount: 4})
	}
	mach := arch.CHiC().Subset(16) // 64 cores
	m := &cost.Model{Machine: mach}
	s := &Scheduler{Model: m, ForceGroups: K, DisableAdjustment: true}
	sched, err := s.Schedule(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	scat, _ := Map(sched, mach, Scattered{})
	for _, set := range scat.OrthogonalSets(0) {
		if lv := arch.SlowestLevel(set); lv > arch.LevelNode {
			t.Fatalf("scattered orthogonal set %v crosses nodes", set)
		}
	}
	cons, _ := Map(sched, mach, Consecutive{})
	crossing := 0
	for _, set := range cons.OrthogonalSets(0) {
		if arch.SlowestLevel(set) == arch.LevelNetwork {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("consecutive orthogonal sets unexpectedly node-internal")
	}
}
