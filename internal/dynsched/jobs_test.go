package dynsched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/ode"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// jobLadder builds a stages-deep ladder graph: two parallel tasks per
// stage with full bipartite edges between stages, so nothing contracts
// into a chain and the schedule has exactly `stages` layers — one resize
// opportunity per stage boundary.
func jobLadder(name string, stages int) *graph.Graph { return workLadder(name, stages, 1e6) }

// workLadder is jobLadder with the given Work per task.
func workLadder(name string, stages int, work float64) *graph.Graph {
	g := graph.New(name)
	var prev [2]graph.TaskID
	for s := 0; s < stages; s++ {
		var cur [2]graph.TaskID
		for i := 0; i < 2; i++ {
			cur[i] = g.AddTask(&graph.Task{
				Name: fmt.Sprintf("%s.%d.%d", name, s, i), Kind: graph.KindBasic, Work: work,
			})
		}
		if s > 0 {
			for _, p := range prev {
				for _, c := range cur {
					g.MustEdge(p, c, 8)
				}
			}
		}
		prev = cur
	}
	return g
}

// paced wraps an ExecState body with a per-task sleep, so job runtimes are
// controlled by the test instead of raw compute speed. Sleeping changes
// nothing about the computed trajectory.
func paced(st *ode.ExecState, d time.Duration, hook func(tc *runtime.TaskCtx)) func(t *graph.Task) runtime.TaskFunc {
	return func(t *graph.Task) runtime.TaskFunc {
		inner := st.Body(t)
		return func(tc *runtime.TaskCtx) error {
			if hook != nil {
				hook(tc)
			}
			if t.Kind == graph.KindBasic && d > 0 {
				time.Sleep(d)
			}
			return inner(tc)
		}
	}
}

// TestJobsBitwiseIdenticalUnderResizes is the malleability property test:
// a long job A is shrunk when job B arrives mid-run and grown back when B
// finishes, and both jobs' outputs stay bitwise identical to their solo
// runs (the ode.ExecState trajectory is a pure function of the graph, so
// any scheduling artifact of the resize machinery would surface as a
// numeric difference).
func TestJobsBitwiseIdenticalUnderResizes(t *testing.T) {
	const n = 32
	m := arch.CHiC().Subset(4)
	pl := plan.New()

	gA := jobLadder("jobA", 12)
	gB := jobLadder("jobB", 3)
	stA := ode.NewExecState(gA, n)
	stB := ode.NewExecState(gB, n)

	// Solo runs on a full-machine partition are the identity oracle.
	soloA := ode.NewExecState(gA, n)
	mpA, err := pl.PlanPartition(context.Background(), gA, m, m.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	wSolo, _ := runtime.NewWorld(m.TotalCores())
	if _, err := runtime.ExecuteCtx(context.Background(), wSolo, mpA.Schedule, soloA.Body); err != nil {
		t.Fatal(err)
	}

	rec := obs.New(1)
	a := &Allocator{Machine: m, Planner: pl, Trace: rec}

	// A's body submits B once A is two layers in, so the shrink decision
	// lands while A still has many barriers ahead.
	arrived := make(chan struct{})
	var once sync.Once
	bodyA := paced(stA, 15*time.Millisecond, func(tc *runtime.TaskCtx) {
		if tc.Layer >= 2 {
			once.Do(func() { close(arrived) })
		}
	})
	chA, err := a.Submit(context.Background(), Job{Name: "A", Graph: gA, Body: bodyA, MinNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-arrived
	chB, err := a.Submit(context.Background(), Job{
		Name: "B", Graph: gB, Body: paced(stB, time.Millisecond, nil), MinNodes: 1, MaxNodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	resA, resB := <-chA, <-chB
	if resA.Err != nil || resB.Err != nil {
		t.Fatalf("job errors: A=%v B=%v", resA.Err, resB.Err)
	}
	if resA.Shrinks < 1 || resA.Grows < 1 {
		t.Fatalf("job A saw %d grows / %d shrinks (%+v), want at least one of each",
			resA.Grows, resA.Shrinks, resA.Resizes)
	}
	// Bitwise identity: multi-job (resized) vs solo vs sequential oracle.
	if err := ode.CompareOutputs(soloA.Outputs(), stA.Outputs()); err != nil {
		t.Fatalf("job A diverged from its solo run: %v", err)
	}
	if err := ode.CompareOutputs(ode.Reference(gA, n), stA.Outputs()); err != nil {
		t.Fatalf("job A diverged from the reference: %v", err)
	}
	if err := ode.CompareOutputs(ode.Reference(gB, n), stB.Outputs()); err != nil {
		t.Fatalf("job B diverged from the reference: %v", err)
	}
	if resA.Report == nil || resA.Report.Resizes != resA.Grows+resA.Shrinks {
		t.Fatalf("allocator resize count disagrees with the execution report: %+v vs %v", resA, resA.Report)
	}

	// The machine-level trace saw the whole story.
	metrics := rec.Metrics()
	for _, c := range []string{"jobs.submitted", "jobs.admitted", "jobs.completed", "jobs.grows", "jobs.shrinks"} {
		if metrics[c] < 1 {
			t.Fatalf("counter %s = %d, want >= 1 (metrics: %v)", c, metrics[c], metrics)
		}
	}
	gantt := a.Gantt(60)
	if !strings.Contains(gantt, "A") || !strings.Contains(gantt, "B") || !strings.Contains(gantt, "grows") {
		t.Fatalf("gantt misses the jobs:\n%s", gantt)
	}
}

// TestJobsRunTraceReplaysArrivals checks the arrival-trace entry point:
// results come back in input order, arrival offsets are respected, and a
// lone job is molded onto the machine and completes.
func TestJobsRunTraceReplaysArrivals(t *testing.T) {
	const n = 16
	m := arch.CHiC().Subset(2)
	pl := plan.New()
	a := &Allocator{Machine: m, Planner: pl}

	g1 := jobLadder("t1", 2)
	g2 := jobLadder("t2", 2)
	st1 := ode.NewExecState(g1, n)
	st2 := ode.NewExecState(g2, n)
	jobs := []Job{
		{Name: "late", Graph: g2, Body: paced(st2, 0, nil), Arrival: 30 * time.Millisecond},
		{Name: "early", Graph: g1, Body: paced(st1, 0, nil)},
	}
	results, err := a.RunTrace(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Name != "late" || results[1].Name != "early" {
		t.Fatalf("results out of input order: %+v", results)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Name, r.Err)
		}
	}
	if results[0].Submitted < 25*time.Millisecond {
		t.Fatalf("late job submitted at %v, want >= ~30ms", results[0].Submitted)
	}
	if results[1].Submitted > results[0].Submitted {
		t.Fatalf("early job submitted after the late one: %+v", results)
	}
}

// TestJobsSubmitValidation checks the admission-time error paths.
func TestJobsSubmitValidation(t *testing.T) {
	m := arch.CHiC().Subset(2)
	pl := plan.New()
	a := &Allocator{Machine: m, Planner: pl}
	if _, err := a.Submit(context.Background(), Job{Name: "nograph"}); err == nil {
		t.Fatal("job without graph accepted")
	}
	g := jobLadder("v", 1)
	st := ode.NewExecState(g, 8)
	if _, err := a.Submit(context.Background(), Job{Graph: g, Body: paced(st, 0, nil), MinNodes: 99}); err == nil {
		t.Fatal("job larger than the machine accepted")
	}
	if _, err := a.Submit(context.Background(), Job{Graph: g, Body: paced(st, 0, nil), MinNodes: 2, MaxNodes: 1}); err == nil {
		t.Fatal("job with min > max accepted")
	}
}

// TestJobsPanickingBodyReleasesNodes is the allocator's panic isolation:
// a job whose body panics fails with a *runtime.PanicError instead of
// crashing the process, the jobs beside and behind it complete, and its
// nodes return to the machine, so a job submitted afterwards is admitted
// on all of them.
func TestJobsPanickingBodyReleasesNodes(t *testing.T) {
	m := arch.CHiC().Subset(4)
	a := &Allocator{Machine: m, Planner: plan.New()}
	panicking := func(t *graph.Task) runtime.TaskFunc {
		return func(tc *runtime.TaskCtx) error { panic("job boom") }
	}
	jobs := []Job{{Name: "bad", Graph: gatedGraph("bad"), Body: panicking, MinNodes: 2, MaxNodes: 2, Rigid: true}}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("good%d", i)
		jobs = append(jobs, Job{
			Name: name, Graph: gatedGraph(name), Body: sleepBody(5 * time.Millisecond),
			MinNodes: 1 + i%2, MaxNodes: 1 + i%2, Rigid: true,
		})
	}
	results, err := a.RunTrace(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var pe *runtime.PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("panicking job: err = %v, want a *runtime.PanicError", results[0].Err)
	}
	for _, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("job %s failed beside the panicking one: %v", r.Name, r.Err)
		}
	}
	// The partitions never oversubscribe the machine. Admission and
	// completion offsets are both taken under the allocator lock, so a
	// release precedes the admission it enables (ties sort releases first).
	type edge struct {
		at    time.Duration
		nodes int
	}
	var edges []edge
	for _, r := range results {
		edges = append(edges, edge{r.Started, r.InitialNodes}, edge{r.Done, -r.FinalNodes})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].nodes < edges[j].nodes
	})
	used := 0
	for _, e := range edges {
		if used += e.nodes; used > m.Nodes {
			t.Fatalf("%d nodes in use at %v on a %d-node machine", used, e.at, m.Nodes)
		}
	}

	ch, err := a.Submit(context.Background(), Job{
		Name: "whole", Graph: gatedGraph("whole"), Body: sleepBody(time.Millisecond),
		MinNodes: m.Nodes, MaxNodes: m.Nodes, Rigid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.Err != nil || r.InitialNodes != m.Nodes {
			t.Fatalf("whole-machine job after the panic: %d nodes, err %v; want %d nodes, no error",
				r.InitialNodes, r.Err, m.Nodes)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("whole-machine job never admitted: the panicking job leaked nodes")
	}
	a.mu.Lock()
	free := a.freeNodes
	a.mu.Unlock()
	if free != m.Nodes {
		t.Fatalf("%d free nodes after every job finished, want %d", free, m.Nodes)
	}
}
