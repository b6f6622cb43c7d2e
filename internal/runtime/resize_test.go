package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// ladderGraph builds a stages-deep ladder: two parallel tasks per stage
// with full bipartite edges between stages, so nothing contracts into a
// chain and the schedule has exactly `stages` layers.
func ladderGraph(name string, stages int) *graph.Graph {
	g := graph.New(name)
	var prev [2]graph.TaskID
	for s := 0; s < stages; s++ {
		var cur [2]graph.TaskID
		for i := 0; i < 2; i++ {
			cur[i] = g.AddTask(&graph.Task{
				Name: fmt.Sprintf("t%d.%d", s, i), Kind: graph.KindBasic, Work: 1e6,
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

// scheduleOn schedules g on P symbolic cores of a CHiC subset.
func scheduleOn(t *testing.T, g *graph.Graph, P int) *core.Schedule {
	t.Helper()
	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, P)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestResizerGrowAndShrink(t *testing.T) {
	// A resizer that shrinks at barrier 2 and grows back at barrier 4:
	// every task still runs exactly once, and the report records both
	// resizes with their core deltas.
	g := ladderGraph("resize", 6)
	s8 := scheduleOn(t, g, 8)
	s4 := scheduleOn(t, g, 4)
	w, _ := NewWorld(8)

	var runs [12]atomic.Int64
	rz := func(ctx context.Context, completed int) (*core.Schedule, error) {
		switch completed {
		case 2:
			return s4, nil
		case 4:
			return s8, nil
		}
		return nil, nil
	}
	rep, err := ExecuteCtx(context.Background(), w, s8, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				runs[task.ID].Add(1)
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithResizer(rz))
	if err != nil {
		t.Fatal(err)
	}
	for id := range runs {
		if got := runs[id].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", id, got)
		}
	}
	if rep.Resizes != 2 || rep.ShrunkCores != 4 || rep.GrownCores != 4 {
		t.Fatalf("resizes = %d (+%d/-%d), want 2 (+4/-4)", rep.Resizes, rep.GrownCores, rep.ShrunkCores)
	}
	if !strings.Contains(rep.String(), "resizes: 2 applied at layer barriers (+4/-4 cores)") {
		t.Fatalf("report does not render the resizes:\n%s", rep)
	}
	if rep.Replans != 0 || rep.LostCores != 0 {
		t.Fatalf("voluntary resizes must not count as replans: %s", rep)
	}
}

func TestResizerConsultedOncePerBoundary(t *testing.T) {
	// A resizer that keeps the schedule is consulted exactly once per
	// interior layer boundary of the top level, in order, by the worker
	// that closed the layer before the next one opens: no body is in
	// flight at any consult, and it gets the run's context, not the
	// closed layer's deadline. Inner trips of a composed task consult it
	// never.
	ladder := scheduleOn(t, ladderGraph("consult", 5), 8)
	top := ladderGraph("consult-top", 3)
	for _, task := range top.Tasks() {
		if task.Name == "t1.0" {
			task.Kind, task.Sub = graph.KindComposed, diamondGraph()
		}
	}
	hs := scheduleHierarchical(t, top, 8)
	for _, tc := range []struct {
		name     string
		layers   int
		composed string // the composed task, whose second trip must have run
		exec     func(body func(*graph.Task) TaskFunc, opts ...ExecOption) (*Report, error)
	}{
		{"flat", len(ladder.Layers), "", func(body func(*graph.Task) TaskFunc, opts ...ExecOption) (*Report, error) {
			w, _ := NewWorld(8)
			return ExecuteCtx(context.Background(), w, ladder, body, opts...)
		}},
		{"composed", len(hs.Top.Layers), "t1.0", func(body func(*graph.Task) TaskFunc, opts ...ExecOption) (*Report, error) {
			w, _ := NewWorld(8)
			return ExecuteHierarchicalCtx(context.Background(), w, hs, body, trips(2), opts...)
		}},
	} {
		for _, pol := range []fault.Policy{{}, {LayerTimeout: time.Minute}} {
			var inFlight atomic.Int32
			var consults []int
			var problems []string
			rz := func(ctx context.Context, completed int) (*core.Schedule, error) {
				consults = append(consults, completed)
				if n := inFlight.Load(); n != 0 {
					problems = append(problems, fmt.Sprintf("%d bodies in flight at boundary %d", n, completed))
				}
				if _, ok := ctx.Deadline(); ok {
					problems = append(problems, fmt.Sprintf("boundary %d: resizer got a layer deadline", completed))
				}
				return nil, nil
			}
			body := func(*graph.Task) TaskFunc {
				return func(tc *TaskCtx) error {
					inFlight.Add(1)
					defer inFlight.Add(-1)
					time.Sleep(200 * time.Microsecond)
					tc.Group.Barrier()
					return nil
				}
			}
			rep, err := tc.exec(body, WithResizer(rz), WithPolicy(pol))
			if err != nil {
				t.Fatalf("%s, layer timeout %v: %v\n%s", tc.name, pol.LayerTimeout, err, rep)
			}
			if tc.layers < 3 {
				t.Fatalf("%s: %d top-level layers, want at least 3", tc.name, tc.layers)
			}
			want := make([]int, 0, tc.layers-1)
			for li := 1; li < tc.layers; li++ {
				want = append(want, li)
			}
			if fmt.Sprint(consults) != fmt.Sprint(want) {
				t.Fatalf("%s, layer timeout %v: consulted at %v, want %v", tc.name, pol.LayerTimeout, consults, want)
			}
			if len(problems) > 0 {
				t.Fatalf("%s, layer timeout %v: %s", tc.name, pol.LayerTimeout, strings.Join(problems, "; "))
			}
			if tc.composed != "" && len(innerSpans(t, rep, tc.composed, 1)) != len(diamondGraph().Tasks()) {
				t.Fatalf("%s: the composed task's second trip did not run every inner task\n%s", tc.name, rep)
			}
			if rep.Resizes != 0 || rep.Layers != tc.layers {
				t.Fatalf("%s, layer timeout %v: %d resizes, %d layers; want 0 and %d", tc.name, pol.LayerTimeout, rep.Resizes, rep.Layers, tc.layers)
			}
		}
	}
}

func TestResizerRejectsWavefront(t *testing.T) {
	g := ladderGraph("resize-wf", 3)
	s8 := scheduleOn(t, g, 8)
	w, _ := NewWorld(8)
	rz := func(ctx context.Context, completed int) (*core.Schedule, error) { return nil, nil }
	_, err := ExecuteCtx(context.Background(), w, s8, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { return nil }
	}, WithWavefront(), WithResizer(rz))
	if !errors.Is(err, ErrResizeInWavefront) {
		t.Fatalf("err = %v, want ErrResizeInWavefront", err)
	}
}

func TestResizerRejectsForeignLayering(t *testing.T) {
	// A resized schedule must keep the layer partition; handing back a
	// schedule of a different graph fails the execution at the barrier.
	g := ladderGraph("resize-bad", 4)
	s8 := scheduleOn(t, g, 8)
	other := scheduleOn(t, ladderGraph("resize-other", 3), 8)
	w, _ := NewWorld(8)
	rz := func(ctx context.Context, completed int) (*core.Schedule, error) { return other, nil }
	_, err := ExecuteCtx(context.Background(), w, s8, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { return nil }
	}, WithResizer(rz))
	if err == nil || !strings.Contains(err.Error(), "resize at layer barrier") {
		t.Fatalf("err = %v, want a layering rejection", err)
	}
}

func TestResizerRejectsOversizedSchedule(t *testing.T) {
	g := ladderGraph("resize-big", 4)
	s4 := scheduleOn(t, g, 4)
	s8 := scheduleOn(t, g, 8)
	w, _ := NewWorld(4)
	rz := func(ctx context.Context, completed int) (*core.Schedule, error) { return s8, nil }
	_, err := ExecuteCtx(context.Background(), w, s4, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { return nil }
	}, WithResizer(rz))
	if err == nil || !strings.Contains(err.Error(), "world has") {
		t.Fatalf("err = %v, want a world-size rejection", err)
	}
}

func TestResizerErrorFailsExecution(t *testing.T) {
	g := ladderGraph("resize-err", 4)
	s8 := scheduleOn(t, g, 8)
	w, _ := NewWorld(8)
	boom := errors.New("boom")
	rz := func(ctx context.Context, completed int) (*core.Schedule, error) { return nil, boom }
	_, err := ExecuteCtx(context.Background(), w, s8, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { return nil }
	}, WithResizer(rz))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the resizer error", err)
	}
}

func TestUtilizationBudgetFollowsResizes(t *testing.T) {
	// Utilization divides busy core-time by each schedule's cores × the
	// wall time it ran. A run grown from 2 to 8 cores at barrier 1 must
	// not read above 100%, nor a run shrunk from 8 to 2 be charged 8
	// cores throughout; without a resize the budget is P × Wall exactly.
	g := ladderGraph("budget", 8)
	s2, s8 := scheduleOn(t, g, 2), scheduleOn(t, g, 8)
	body := func(*graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			time.Sleep(2 * time.Millisecond)
			tc.Group.Barrier()
			return nil
		}
	}
	for _, c := range []struct {
		name     string
		from, to *core.Schedule
	}{{"grow", s2, s8}, {"shrink", s8, s2}, {"none", s8, nil}} {
		rz := func(_ context.Context, completed int) (*core.Schedule, error) {
			if completed == 1 {
				return c.to, nil
			}
			return nil, nil
		}
		w, _ := NewWorld(8)
		rep, err := ExecuteCtx(context.Background(), w, c.from, body, WithResizer(rz))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		busy, _, frac := rep.Utilization()
		rep.mu.Lock()
		_, _, total := rep.coreTimeLocked()
		rep.mu.Unlock()
		t.Logf("%s: busy %v of a %v budget (%.1f%%), wall %v", c.name, busy, total, 100*frac, rep.Wall)
		if busy <= 0 || frac > 1 {
			t.Fatalf("%s: busy %v, %.1f%% utilized; want within the budget\n%s", c.name, busy, 100*frac, rep)
		}
		if c.to == nil {
			if want := time.Duration(c.from.P) * rep.Wall; total != want {
				t.Fatalf("%s: budget %v, want P × Wall = %v exactly", c.name, total, want)
			}
			continue
		}
		if lo, hi := 2*rep.Wall, 8*rep.Wall; total <= lo || total >= hi {
			t.Fatalf("%s: budget %v outside (2 × Wall, 8 × Wall) = (%v, %v)", c.name, total, lo, hi)
		}
	}
}
