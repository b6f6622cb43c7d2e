package dynsched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// gatedGraph returns a one-task graph whose body blocks until release is
// closed (or the job's context is canceled).
func gatedGraph(name string) *graph.Graph {
	g := graph.New(name)
	g.AddTask(&graph.Task{Name: name, Kind: graph.KindBasic, Work: 1e6})
	return g
}

func gatedBody(release <-chan struct{}) func(t *graph.Task) runtime.TaskFunc {
	return func(t *graph.Task) runtime.TaskFunc {
		return func(tc *runtime.TaskCtx) error {
			select {
			case <-release:
				return nil
			case <-tc.Ctx.Done():
				return tc.Ctx.Err()
			}
		}
	}
}

func sleepBody(d time.Duration) func(t *graph.Task) runtime.TaskFunc {
	return func(t *graph.Task) runtime.TaskFunc {
		return func(tc *runtime.TaskCtx) error {
			time.Sleep(d)
			return nil
		}
	}
}

// TestBackfillStarvationGuard is the fairness regression test: a large
// job at the queue head must not be bypassed indefinitely by a stream of
// backfilled small jobs. With MaxBypass = 2, exactly two of the five
// small jobs may jump the head; the rest run after it.
func TestBackfillStarvationGuard(t *testing.T) {
	m := arch.CHiC().Subset(4)
	pl := plan.New()
	a := &Allocator{Machine: m, Planner: pl, MaxBypass: 2}
	ctx := context.Background()

	release := make(chan struct{})
	chR, err := a.Submit(ctx, Job{
		Name: "R", Graph: gatedGraph("R"), Body: gatedBody(release),
		MinNodes: 2, MaxNodes: 2, Rigid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The head: needs the whole machine, cannot start while R runs.
	chH, err := a.Submit(ctx, Job{
		Name: "H", Graph: gatedGraph("H"), Body: sleepBody(time.Millisecond),
		MinNodes: 4, MaxNodes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A stream of small jobs that would starve H under unbounded backfill.
	smallCh := make([]<-chan *JobResult, 5)
	for i := range smallCh {
		smallCh[i], err = a.Submit(ctx, Job{
			Name: fmt.Sprintf("S%d", i), Graph: gatedGraph(fmt.Sprintf("S%d", i)),
			Body: sleepBody(5 * time.Millisecond), MinNodes: 1, MaxNodes: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Let the backfilled smalls finish, then release R so H can start.
	time.Sleep(50 * time.Millisecond)
	close(release)

	resR := <-chR
	resH := <-chH
	smalls := make([]*JobResult, len(smallCh))
	for i, ch := range smallCh {
		smalls[i] = <-ch
	}
	if resR.Err != nil || resH.Err != nil {
		t.Fatalf("job errors: R=%v H=%v", resR.Err, resH.Err)
	}
	if resH.Bypassed != 2 {
		t.Fatalf("H was bypassed %d times, want exactly MaxBypass=2", resH.Bypassed)
	}
	backfilled, afterH := 0, 0
	for _, s := range smalls {
		if s.Err != nil {
			t.Fatalf("small job %s failed: %v", s.Name, s.Err)
		}
		if s.Backfilled {
			backfilled++
			if s.Started >= resH.Started {
				t.Fatalf("backfilled job %s started after H: %+v", s.Name, s)
			}
			continue
		}
		if s.Started < resH.Started {
			t.Fatalf("non-backfilled small %s jumped the head: started %v, H started %v",
				s.Name, s.Started, resH.Started)
		}
		afterH++
	}
	if backfilled != 2 || afterH != 3 {
		t.Fatalf("backfilled=%d afterH=%d, want 2 and 3", backfilled, afterH)
	}
}

// TestCancellationDuringResize cancels a job while it has a pending
// shrink (requested but not yet applied at a barrier): the job's nodes —
// including the not-yet-released shrink delta — must return to the
// machine, and waiting jobs must proceed.
func TestCancellationDuringResize(t *testing.T) {
	m := arch.CHiC().Subset(4)
	pl := plan.New()
	a := &Allocator{Machine: m, Planner: pl}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	// Job A: two layers; layer 1 blocks, so a shrink requested during
	// layer 1 stays pending forever.
	gA := jobLadder("cancelA", 2)
	entered := make(chan struct{})
	var enterOnce sync.Once
	bodyA := func(t *graph.Task) runtime.TaskFunc {
		return func(tc *runtime.TaskCtx) error {
			if tc.Layer == 0 {
				return nil
			}
			enterOnce.Do(func() { close(entered) })
			<-tc.Ctx.Done()
			return tc.Ctx.Err()
		}
	}
	chA, err := a.Submit(ctxA, Job{Name: "A", Graph: gA, Body: bodyA, MinNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // layer 1 running: A holds the whole machine (grown at barrier 1)

	// Job B forces a shrink request on A; it cannot start while A blocks.
	gB := jobLadder("cancelB", 2)
	chB, err := a.Submit(context.Background(), Job{
		Name: "B", Graph: gB, Body: sleepBody(time.Millisecond), MinNodes: 2, MaxNodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The shrink request was made synchronously inside Submit; cancel A
	// while it is pending.
	cancelA()
	resA := <-chA
	resB := <-chB
	if resA.Err == nil {
		t.Fatal("canceled job A reported no error")
	}
	if resA.Shrinks != 0 {
		t.Fatalf("the pending shrink must never apply, got %+v", resA.Resizes)
	}
	if resB.Err != nil {
		t.Fatalf("job B failed after A's cancellation: %v", resB.Err)
	}
	// No node leak: a whole-machine job still fits.
	chC, err := a.Submit(context.Background(), Job{
		Name: "C", Graph: gatedGraph("C"), Body: sleepBody(time.Millisecond), MinNodes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resC := <-chC
	if resC.Err != nil {
		t.Fatalf("whole-machine job failed after cancellation cleanup: %v", resC.Err)
	}
	if resC.InitialNodes != 4 {
		t.Fatalf("job C got %d nodes, want all 4 (leak?)", resC.InitialNodes)
	}
}

// TestEquipartitionRebalance: a job admitted under-sized (free nodes
// were scarce at admission) must be grown toward the equal share while
// its neighbour still runs — not only after the neighbour finishes.
func TestEquipartitionRebalance(t *testing.T) {
	m := arch.CHiC().Subset(4)
	pl := plan.New()
	a := &Allocator{Machine: m, Planner: pl}

	// A is long (12 paced stages) and takes the whole machine.
	gA := jobLadder("eqA", 12)
	started := make(chan struct{})
	var once sync.Once
	bodyA := func(task *graph.Task) runtime.TaskFunc {
		return func(tc *runtime.TaskCtx) error {
			if tc.Layer >= 1 {
				once.Do(func() { close(started) })
			}
			time.Sleep(8 * time.Millisecond)
			return nil
		}
	}
	chA, err := a.Submit(context.Background(), Job{Name: "eqA", Graph: gA, Body: bodyA, MinNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// B arrives while nothing is free: it is admitted at whatever one
	// shrink of A frees — below the 2-node equal share — and is shorter
	// than A, so any growth it sees must have happened while A ran.
	gB := jobLadder("eqB", 6)
	chB, err := a.Submit(context.Background(), Job{
		Name: "eqB", Graph: gB, Body: sleepBody(8 * time.Millisecond), MinNodes: 1, MaxNodes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resB := <-chB
	resA := <-chA
	if resA.Err != nil || resB.Err != nil {
		t.Fatalf("job errors: A=%v B=%v", resA.Err, resB.Err)
	}
	if resB.Done >= resA.Done {
		t.Fatalf("test premise broken: B (done %v) must finish before A (done %v)", resB.Done, resA.Done)
	}
	if resB.Grows < 1 || resB.FinalNodes < 2 {
		t.Fatalf("under-sized B was never rebalanced toward the equal share while A ran: %+v", resB)
	}
	if resA.Shrinks < 1 {
		t.Fatalf("A never shrank for B: %+v", resA)
	}
}

// TestCancellationWhileQueued cancels a job that never left the queue.
func TestCancellationWhileQueued(t *testing.T) {
	m := arch.CHiC().Subset(2)
	pl := plan.New()
	a := &Allocator{Machine: m, Planner: pl}
	release := make(chan struct{})
	chR, err := a.Submit(context.Background(), Job{
		Name: "R", Graph: gatedGraph("R"), Body: gatedBody(release), MinNodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxQ, cancelQ := context.WithCancel(context.Background())
	chQ, err := a.Submit(ctxQ, Job{
		Name: "Q", Graph: gatedGraph("Q"), Body: sleepBody(time.Millisecond), MinNodes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelQ()
	resQ := <-chQ
	if resQ.Err == nil || resQ.Report != nil {
		t.Fatalf("queued-canceled job: err=%v report=%v, want error and no report", resQ.Err, resQ.Report)
	}
	close(release)
	if resR := <-chR; resR.Err != nil {
		t.Fatalf("running job failed: %v", resR.Err)
	}
}
