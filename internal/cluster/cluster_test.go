package cluster

import (
	"math"
	"strings"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
)

func chic(nodes int) *cost.Model {
	return &cost.Model{Machine: arch.CHiC().Subset(nodes)}
}

func cores(m *cost.Model, from, to int) []arch.CoreID {
	return m.Machine.AllCores()[from:to]
}

func TestSimulateSequentialChain(t *testing.T) {
	m := chic(1)
	p := &Program{Name: "chain"}
	a := p.Add(TaskSpec{Name: "a", Work: 5.2e9, Cores: cores(m, 0, 4)})
	b := p.Add(TaskSpec{Name: "b", Work: 5.2e9, Cores: cores(m, 0, 4), Deps: []int{a}})
	res, err := Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// each task: 1s of work / 4 cores = 0.25s
	if math.Abs(res.Finish[a]-0.25) > 1e-9 {
		t.Fatalf("finish a = %g, want 0.25", res.Finish[a])
	}
	if math.Abs(res.Start[b]-0.25) > 1e-9 || math.Abs(res.Makespan-0.5) > 1e-9 {
		t.Fatalf("start b = %g makespan = %g, want 0.25 / 0.5", res.Start[b], res.Makespan)
	}
	if res.CommTime != 0 || res.RedistTime != 0 {
		t.Fatalf("unexpected comm %g redist %g", res.CommTime, res.RedistTime)
	}
}

func TestSimulateConcurrentTasks(t *testing.T) {
	m := chic(2)
	p := &Program{Name: "par"}
	p.Add(TaskSpec{Name: "a", Work: 5.2e9, Cores: cores(m, 0, 4)})
	p.Add(TaskSpec{Name: "b", Work: 5.2e9, Cores: cores(m, 4, 8)})
	res, err := Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-0.25) > 1e-9 {
		t.Fatalf("concurrent makespan = %g, want 0.25", res.Makespan)
	}
}

func TestSimulateRedistributionDelay(t *testing.T) {
	m := chic(2)
	p := &Program{Name: "redist"}
	a := p.Add(TaskSpec{Name: "a", Work: 5.2e9, Cores: cores(m, 0, 4)})
	p.Add(TaskSpec{Name: "b", Work: 5.2e9, Cores: cores(m, 4, 8),
		Deps: []int{a}, Redist: map[int]int{a: 1 << 20}})
	res, err := Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RedistTime <= 0 {
		t.Fatal("no redistribution time recorded")
	}
	if math.Abs(res.Makespan-(0.5+res.RedistTime)) > 1e-9 {
		t.Fatalf("makespan %g != 0.5 + redist %g", res.Makespan, res.RedistTime)
	}
	// Same cores: no redistribution.
	p2 := &Program{Name: "same"}
	a2 := p2.Add(TaskSpec{Name: "a", Work: 5.2e9, Cores: cores(m, 0, 4)})
	p2.Add(TaskSpec{Name: "b", Work: 5.2e9, Cores: cores(m, 0, 4),
		Deps: []int{a2}, Redist: map[int]int{a2: 1 << 20}})
	res2, err := Simulate(m, p2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RedistTime != 0 {
		t.Fatalf("same-group redistribution charged: %g", res2.RedistTime)
	}
}

func TestSimulateErrors(t *testing.T) {
	m := chic(1)
	p := &Program{Name: "bad"}
	p.Add(TaskSpec{Name: "a", Work: 1, Cores: cores(m, 0, 1), Deps: []int{5}})
	if _, err := Simulate(m, p); err == nil {
		t.Fatal("invalid dep accepted")
	}
	p2 := &Program{Name: "cycle"}
	p2.Add(TaskSpec{Name: "a", Work: 1, Cores: cores(m, 0, 1), Deps: []int{1}})
	p2.Add(TaskSpec{Name: "b", Work: 1, Cores: cores(m, 0, 1), Deps: []int{0}})
	if _, err := Simulate(m, p2); err == nil {
		t.Fatal("cycle accepted")
	}
	p3 := &Program{Name: "nocores"}
	p3.Add(TaskSpec{Name: "a", Work: 1})
	if _, err := Simulate(m, p3); err == nil {
		t.Fatal("work without cores accepted")
	}
	p4 := &Program{Name: "self"}
	p4.Add(TaskSpec{Name: "a", Work: 1, Cores: cores(m, 0, 1), Deps: []int{0}})
	if _, err := Simulate(m, p4); err == nil {
		t.Fatal("self dependency accepted")
	}
}

func TestSimulateCommPhase(t *testing.T) {
	m := chic(4)
	all := m.Machine.AllCores()
	// Orthogonal exchange: 4 sets of 4 cores each, one per node
	// (scattered-style) vs 4 sets spread across nodes.
	var intra, inter [][]arch.CoreID
	for n := 0; n < 4; n++ {
		var set []arch.CoreID
		for k := 0; k < 4; k++ {
			set = append(set, all[n*4+k])
		}
		intra = append(intra, set)
	}
	for j := 0; j < 4; j++ {
		var set []arch.CoreID
		for n := 0; n < 4; n++ {
			set = append(set, all[n*4+j])
		}
		inter = append(inter, set)
	}
	run := func(sets [][]arch.CoreID) float64 {
		p := &Program{Name: "comm"}
		p.Add(TaskSpec{Name: "x", CommSets: sets, CommSetBytes: 1 << 16, CommSetOps: 3})
		res, err := Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	ti, te := run(intra), run(inter)
	if !(ti < te) {
		t.Fatalf("node-internal orthogonal comm %g should beat inter-node %g", ti, te)
	}
}

// buildEPOL builds an EPOL-like step graph (R chains + combine).
func buildEPOL(r int, work float64, bytes int) *graph.Graph {
	g := graph.New("epol")
	combine := g.AddTask(&graph.Task{Name: "combine", Kind: graph.KindBasic,
		Work: work, CommBytes: bytes, CommCount: 1})
	for i := 1; i <= r; i++ {
		prev := graph.None
		for j := 1; j <= i; j++ {
			s := g.AddTask(&graph.Task{Name: "step", Kind: graph.KindBasic,
				Work: work, CommBytes: bytes, CommCount: 1, OutBytes: bytes})
			if prev != graph.None {
				g.MustEdge(prev, s, bytes)
			}
			prev = s
		}
		g.MustEdge(prev, combine, bytes)
	}
	g.AddStartStop()
	return g
}

func TestFromMappingEndToEnd(t *testing.T) {
	m := chic(16)
	g := buildEPOL(4, 1e9, 1<<20)
	s := &core.Scheduler{Model: m}
	sched, err := s.Schedule(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := core.Map(sched, m.Machine, core.Consecutive{})
	if err != nil {
		t.Fatal(err)
	}
	prog, index, err := FromMapping(m, mp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// All non-marker tasks have a program entry.
	for _, task := range sched.Graph.Tasks() {
		if task.Kind == graph.KindBasic && index[task.ID] < 0 {
			t.Fatalf("task %s unmapped in program", task.Name)
		}
	}
	// The combine task must start after all chains finish.
	var combineIdx int
	for _, task := range sched.Graph.Tasks() {
		if task.Name == "combine" || (len(task.Members) == 1 && sched.Source.Task(task.Members[0]).Name == "combine") {
			combineIdx = index[task.ID]
		}
	}
	for i, spec := range prog.Tasks {
		if i != combineIdx && spec.Work > 0 && res.Finish[i] > res.Start[combineIdx]+1e-12 {
			t.Fatalf("task %d (%s) finishes at %g after combine starts at %g",
				i, spec.Name, res.Finish[i], res.Start[combineIdx])
		}
	}
}

func TestMappingChangesSimulatedTime(t *testing.T) {
	// A communication-bound task-parallel layer must run faster under
	// the mapping that keeps groups node-internal.
	m := chic(16) // 64 cores
	g := graph.New("layer")
	for i := 0; i < 16; i++ {
		g.AddTask(&graph.Task{Name: "t", Kind: graph.KindBasic,
			Work: 1e8, CommBytes: 1 << 22, CommCount: 16})
	}
	s := &core.Scheduler{Model: m, ForceGroups: 16}
	sched, err := s.Schedule(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	run := func(strat core.Strategy) float64 {
		mp, err := core.Map(sched, m.Machine, strat)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := FromMapping(m, mp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	cons := run(core.Consecutive{})
	scat := run(core.Scattered{})
	// 16 groups of 4 cores: consecutive keeps each group on one node.
	if !(cons < scat) {
		t.Fatalf("consecutive %g should beat scattered %g for group-internal comm", cons, scat)
	}
}

func TestLayerBarrierOrdersLayers(t *testing.T) {
	m := chic(4)
	g := graph.New("two-layer")
	a := g.AddTask(&graph.Task{Name: "a", Kind: graph.KindBasic, Work: 1e9})
	b := g.AddTask(&graph.Task{Name: "b", Kind: graph.KindBasic, Work: 2e9})
	c := g.AddTask(&graph.Task{Name: "c", Kind: graph.KindBasic, Work: 1e9})
	g.MustEdge(a, c, 0)
	_ = b
	// Disable chain contraction so a and c stay separate tasks in
	// different layers.
	s := &core.Scheduler{Model: m, DisableChainContraction: true}
	sched, err := s.Schedule(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	mp, _ := core.Map(sched, m.Machine, core.Consecutive{})
	prog, index, err := FromMapping(m, mp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	// c is in layer 2 and must start only after BOTH a and b finished
	// (layer barrier), even though it only depends on a.
	ci := index[sched.NodeOf[c]]
	for _, id := range []graph.TaskID{a, b} {
		i := index[sched.NodeOf[id]]
		if res.Finish[i] > res.Start[ci]+1e-12 {
			t.Fatalf("layer barrier violated: task %d finishes %g after c starts %g",
				i, res.Finish[i], res.Start[ci])
		}
	}
}

func TestRenderGantt(t *testing.T) {
	m := chic(2)
	p := &Program{Name: "gantt"}
	a := p.Add(TaskSpec{Name: "alpha", Work: 5.2e9, Cores: cores(m, 0, 4)})
	p.Add(TaskSpec{Name: "beta", Work: 5.2e9, Cores: cores(m, 4, 8)})
	p.Add(TaskSpec{Name: "gamma", Work: 5.2e9, Cores: cores(m, 0, 8), Deps: []int{a}})
	p.Add(TaskSpec{Name: "barrier"}) // zero duration, omitted
	res, err := Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGantt(p, res, 40)
	for _, want := range []string{"alpha", "beta", "gamma", "makespan", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "barrier") {
		t.Fatalf("zero-duration task rendered:\n%s", out)
	}
	// gamma starts after alpha: its bar must not begin at column 0.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "gamma") {
			bar := line[strings.Index(line, "|")+1:]
			if strings.HasPrefix(bar, "#") {
				t.Fatalf("gamma bar starts at 0:\n%s", out)
			}
		}
	}
}
