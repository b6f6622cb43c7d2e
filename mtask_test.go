package mtask

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// buildDemoGraph builds a small fork-join M-task graph through the public
// API.
func buildDemoGraph() *Graph {
	g := NewGraph("demo")
	split := g.AddTask(&Task{Name: "split", Work: 1e9, OutBytes: 1 << 20})
	var mids []TaskID
	for i := 0; i < 4; i++ {
		id := g.AddTask(&Task{Name: "work", Work: 4e9, CommBytes: 1 << 22, CommCount: 8, OutBytes: 1 << 20})
		g.MustEdge(split, id, 1<<20)
		mids = append(mids, id)
	}
	join := g.AddTask(&Task{Name: "join", Work: 1e9})
	for _, id := range mids {
		g.MustEdge(id, join, 1<<20)
	}
	return g
}

func TestPlanDemoEndToEnd(t *testing.T) {
	g := buildDemoGraph()
	m := CHiC().Subset(16)
	mp, err := Plan(context.Background(), g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(mp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if !strings.Contains(Describe(mp), "demo") {
		t.Fatalf("Describe = %q", Describe(mp))
	}
	// The comm-heavy middle layer should be task parallel.
	if mp.Schedule.MaxGroups() < 2 {
		t.Fatalf("expected task parallelism, got %d groups", mp.Schedule.MaxGroups())
	}
}

func TestPlanInvalidMachine(t *testing.T) {
	g := buildDemoGraph()
	bad := &Machine{Name: "bad"}
	if _, err := Plan(context.Background(), g, bad); !errors.Is(err, ErrInvalidMachine) {
		t.Fatalf("invalid machine: got %v, want ErrInvalidMachine", err)
	}
}

// TestPlanEndToEnd drives the primary Plan API: options, cache behaviour,
// cache/cold-path agreement, and simulation.
func TestPlanEndToEnd(t *testing.T) {
	g := buildDemoGraph()
	m := CHiC().Subset(16)
	ctx := context.Background()

	mp, err := Plan(ctx, g, m, WithStrategy(Scattered{}), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(); err != nil {
		t.Fatal(err)
	}
	if mp.Strategy.Name() != "scattered" {
		t.Fatalf("strategy = %s, want scattered", mp.Strategy.Name())
	}
	res, err := SimulateCtx(ctx, mp)
	if err != nil || res.Makespan <= 0 {
		t.Fatalf("simulate: err=%v makespan=%v", err, res.Makespan)
	}

	// The cached path and an uncached cold plan agree bit-identically.
	old, err := Plan(ctx, g, m, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Plan(ctx, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if old.Schedule.Time != nw.Schedule.Time {
		t.Fatalf("uncached %v != cached %v", old.Schedule.Time, nw.Schedule.Time)
	}

	// Core-count and group-count options shape the schedule.
	dp, err := Plan(ctx, g, m, WithCores(8), WithForceGroups(1), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Schedule.P != 8 || dp.Schedule.MaxGroups() != 1 {
		t.Fatalf("options ignored: P=%d groups=%d", dp.Schedule.P, dp.Schedule.MaxGroups())
	}
}

// TestPlanSentinelsTopLevel checks the re-exported errors.Is contract.
func TestPlanSentinelsTopLevel(t *testing.T) {
	g := buildDemoGraph()
	m := CHiC().Subset(2)
	ctx := context.Background()

	if _, err := Plan(ctx, g, &Machine{Name: "bad"}); !errors.Is(err, ErrInvalidMachine) {
		t.Fatalf("got %v, want ErrInvalidMachine", err)
	}

	cyc := NewGraph("cyclic")
	a := cyc.AddBasic("a", 1)
	b := cyc.AddBasic("b", 1)
	cyc.MustEdge(a, b, 0)
	cyc.MustEdge(b, a, 0)
	if _, err := Plan(ctx, cyc, m); !errors.Is(err, ErrCyclicGraph) {
		t.Fatalf("got %v, want ErrCyclicGraph", err)
	}

	if _, err := Plan(ctx, g, m, WithCores(-3)); !errors.Is(err, ErrNoCores) {
		t.Fatalf("got %v, want ErrNoCores", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Plan(canceled, g, m, WithoutCache()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	mp, err := Plan(ctx, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateCtx(canceled, mp); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SimulateCtx: got %v, want ErrCanceled", err)
	}
}

func TestExecuteThroughFacade(t *testing.T) {
	g := buildDemoGraph()
	m := CHiC().Subset(2)
	model := &CostModel{Machine: m}
	sched, err := (&Scheduler{Model: model}).Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan string, 16)
	err = Execute(w, sched, func(task *Task) TaskFunc {
		return func(ctx *TaskCtx) error {
			if ctx.Group.Rank() == 0 {
				ran <- task.Name
			}
			ctx.Group.Barrier()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ran)
	count := 0
	for range ran {
		count++
	}
	if count != 6 {
		t.Fatalf("ran %d tasks, want 6", count)
	}

	// A panicking body comes back as a *PanicError in the error.
	err = Execute(w, sched, func(task *Task) TaskFunc {
		return func(ctx *TaskCtx) error { panic("boom") }
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("body panic not returned as *PanicError: %v", err)
	}
}

func TestCompileSpecFacade(t *testing.T) {
	u, err := CompileSpec(`
task work(x:vector:inout) work 1000 comm 800;
cmmain M(x:vector:inout:replic) {
  work(x);
  work(x);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Graph.Len() != 4 { // 2 tasks + start/stop
		t.Fatalf("compiled graph has %d tasks", u.Graph.Len())
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 9 {
		t.Fatalf("only %d experiments registered: %v", len(ids), ids)
	}
	for _, want := range []string{"table1", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing", want)
		}
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Run the cheapest one end to end.
	tables, err := RunExperiment("fig14")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig14 returned %d tables", len(tables))
	}
	if out := tables[0].Format(); !strings.Contains(out, "consecutive") {
		t.Fatalf("unexpected table output:\n%s", out)
	}
}

func TestMachinePresets(t *testing.T) {
	for _, m := range []*Machine{CHiC(), SGIAltix(), JuRoPA()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestFacadeDynamicAndRedist(t *testing.T) {
	w, _ := NewWorld(4)
	ran := 0
	err := RunDynamic(w, func(ctx *DynCtx) error {
		return ctx.SplitRun([]float64{1, 1}, []DynTask{
			func(c *DynCtx) error {
				if c.Comm.Rank() == 0 && c.Comm.WorldRank() == 0 {
					ran++
				}
				return nil
			},
			func(c *DynCtx) error { return nil },
		})
	})
	if err != nil || ran != 1 {
		t.Fatalf("dynamic run: err=%v ran=%d", err, ran)
	}

	m := CHiC().Subset(2)
	all := m.AllCores()
	plan, err := PlanRedistribution(
		RedistLayout{Kind: 0, Cores: all[:4], N: 32},
		RedistLayout{Kind: 0, Cores: all[4:], N: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	g := buildDemoGraph()
	mp, err := Plan(context.Background(), g, m)
	if err != nil {
		t.Fatal(err)
	}
	gantt, err := RenderGantt(mp, 40)
	if err != nil || len(gantt) < 20 {
		t.Fatalf("gantt: err=%v len=%d", err, len(gantt))
	}
}
