package mtask

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestExecuteCtxFacade exercises the public fault-tolerance surface end to
// end: plan a graph, inject a scripted core loss, recover through the
// standard ReplannerFor callback, and observe the recovery in the Report.
func TestExecuteCtxFacade(t *testing.T) {
	g := buildDemoGraph()
	// A script strikes every task of its name, and losing all four "work"
	// groups would leave no survivors: name one of them apart.
	for _, task := range g.Tasks() {
		if task.Name == "work" {
			task.Name = "work1"
			break
		}
	}
	machine := CHiC().Subset(2) // 8 cores
	planner := NewPlanner(WithCores(8))
	ctx := context.Background()
	mp, err := planner.Plan(ctx, g, machine)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}

	inj := &FaultInjector{Script: []FaultScript{
		{Task: "work1", Attempt: 1, Rank: 0, Kind: FaultCoreLoss},
	}}
	pol := DefaultFaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	pol.DegradeAndReplan = true

	var mu sync.Mutex
	ran := map[string]int{}
	rep, err := ExecuteCtx(ctx, w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				mu.Lock()
				ran[task.Name]++
				mu.Unlock()
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithFaultPolicy(pol), WithFaultInjector(inj),
		WithReplanner(ReplannerFor(planner, g, machine)))
	if err != nil {
		t.Fatalf("degrade-and-replan through the facade failed: %v\n%s", err, rep)
	}
	if rep.Replans != 1 || rep.LostCores == 0 {
		t.Fatalf("recovery not recorded: %s", rep)
	}
	for _, name := range []string{"split", "work", "work1", "join"} {
		if ran[name] == 0 {
			t.Fatalf("task %q never completed: %v", name, ran)
		}
	}
}

// TestExecuteCtxFacadeSharedName pins what a script on a shared name does:
// the demo graph's four parallel tasks are all named "work", and each
// numbers its own attempts, so work@1 strikes every one of them once.
// Their shared TaskReport sums the four histories.
func TestExecuteCtxFacadeSharedName(t *testing.T) {
	g := buildDemoGraph()
	mp, err := NewPlanner(WithCores(8)).Plan(context.Background(), g, CHiC().Subset(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	inj := &FaultInjector{Script: []FaultScript{{Task: "work", Attempt: 1, Rank: 0, Kind: FaultError}}}
	pol := DefaultFaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	rep, err := ExecuteCtx(context.Background(), w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error { tc.Group.Barrier(); return nil }
	}, WithFaultPolicy(pol), WithFaultInjector(inj))
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if got := rep.Task("work"); got.Attempts != 8 || got.Retries != 4 || got.Failures != 4 || rep.Retries != 4 {
		t.Fatalf("work = %+v with %d retries in total, want 8 attempts, 4 retries, 4 failures and 4\n%s", got, rep.Retries, rep)
	}
}

// TestFaultSentinelsTopLevel pins the re-exported sentinels to their
// internal identities (errors.Is must work across the facade).
func TestFaultSentinelsTopLevel(t *testing.T) {
	w, _ := NewWorld(4)
	g := NewGraph("boom")
	g.AddTask(&Task{Name: "boom", Work: 1})
	mp, err := Plan(context.Background(), g, CHiC().Subset(1), WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	inj := &FaultInjector{Script: []FaultScript{
		{Task: "boom", Attempt: 1, Rank: 0, Kind: FaultCoreLoss},
	}}
	_, err = ExecuteCtx(context.Background(), w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error { tc.Group.Barrier(); return nil }
	}, WithFaultInjector(inj))
	if !errors.Is(err, ErrCoreLost) || !errors.Is(err, ErrInjected) {
		t.Fatalf("sentinels lost across the facade: %v", err)
	}
}

// TestExecuteCtxFacadePanic verifies panic isolation through the facade.
func TestExecuteCtxFacadePanic(t *testing.T) {
	w, _ := NewWorld(4)
	g := NewGraph("p")
	g.AddTask(&Task{Name: "p", Work: 1})
	mp, err := Plan(context.Background(), g, CHiC().Subset(1), WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecuteCtx(context.Background(), w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 2 {
				panic("isolated")
			}
			tc.Group.Barrier()
			return nil
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if rep.Panics != 1 {
		t.Fatalf("panics = %d, want 1", rep.Panics)
	}
}
