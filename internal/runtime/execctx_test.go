package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// diamondSchedule builds the diamond test graph and schedules it on P
// symbolic cores of a CHiC subset.
func diamondSchedule(t *testing.T, P int) (*graph.Graph, *core.Schedule) {
	t.Helper()
	g := diamondGraph()
	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, P)
	if err != nil {
		t.Fatal(err)
	}
	return g, sched
}

// diamondGraph is the diamond test graph: a feeds b and c, which feed d.
func diamondGraph() *graph.Graph {
	g := graph.New("diamond")
	a := g.AddTask(&graph.Task{Name: "a", Kind: graph.KindBasic, Work: 1e6})
	b := g.AddTask(&graph.Task{Name: "b", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 22, CommCount: 16})
	c := g.AddTask(&graph.Task{Name: "c", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 22, CommCount: 16})
	d := g.AddTask(&graph.Task{Name: "d", Kind: graph.KindBasic, Work: 1e6})
	g.MustEdge(a, b, 8)
	g.MustEdge(a, c, 8)
	g.MustEdge(b, d, 8)
	g.MustEdge(c, d, 8)
	return g
}

// diamondReplanner reschedules the diamond graph on the surviving cores.
func diamondReplanner(t *testing.T, g *graph.Graph) Replanner {
	t.Helper()
	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	return func(ctx context.Context, survivors int) (*core.Schedule, error) {
		return (&core.Scheduler{Model: model}).Schedule(g, survivors)
	}
}

func TestExecuteCtxPlain(t *testing.T) {
	// Without faults or options ExecuteCtx behaves like Execute and the
	// report counts one attempt per task and all layers.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	var ran [4]atomic.Int64
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				ran[task.ID].Add(1)
			}
			tc.Group.Barrier()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if got := ran[id].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", id, got)
		}
	}
	if rep.Layers != len(sched.Layers) || rep.Retries != 0 || rep.Panics != 0 || rep.Replans != 0 {
		t.Fatalf("unexpected report: %s", rep)
	}
	if got := rep.Task("a").Attempts; got != 1 {
		t.Fatalf("task a attempts = %d, want 1", got)
	}
}

func TestExecuteCtxPanicIsolation(t *testing.T) {
	// A panicking body must not crash the process: the panic becomes a
	// *PanicError with a captured stack, peers blocked in a collective
	// are released via the communicator abort, and the report counts it.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if task.Name == "b" && tc.Group.Rank() == 0 {
				panic("kaboom")
			}
			tc.Group.Barrier() // peers must be released, not deadlock
			return nil
		}
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not carry *PanicError: %v", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "kaboom") {
		t.Fatalf("panic value lost: %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if rep.Panics == 0 || rep.Task("b").Panics == 0 {
		t.Fatalf("panic not reported: %s", rep)
	}
}

func TestExecuteCtxRetrySucceeds(t *testing.T) {
	// A task that fails on its first two attempts and then succeeds must
	// be retried to success per the policy, and the report must show the
	// attempts and retries.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	var bAttempts atomic.Int64
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if task.Name == "b" {
				n := int64(0)
				if tc.Group.Rank() == 0 {
					n = bAttempts.Add(1)
				}
				n = int64(tc.Group.AllreduceMax(float64(n)))
				if n <= 2 {
					if tc.Group.Rank() == 0 {
						return fmt.Errorf("transient flake %d", n)
					}
					tc.Group.Barrier() // released by the failing rank's abort
					return nil
				}
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol))
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	tr := rep.Task("b")
	if tr.Attempts != 3 || tr.Retries != 2 || tr.Failures != 2 {
		t.Fatalf("task b report = %+v, want 3 attempts / 2 retries / 2 failures", tr)
	}
	if rep.Retries != 2 {
		t.Fatalf("total retries = %d, want 2", rep.Retries)
	}
}

func TestExecuteCtxRetriesExhausted(t *testing.T) {
	// Persistent failure exhausts the budget: MaxRetries+1 attempts, then
	// the error surfaces (wrapped with the attempt count) and OnExhausted
	// fires.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 2
	pol.BaseBackoff = 100 * time.Microsecond
	var exhaustedTask string
	var exhaustedAttempts int
	pol.OnExhausted = func(task string, attempts int, err error) {
		exhaustedTask, exhaustedAttempts = task, attempts
	}
	sentinel := errors.New("hard failure")
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if task.Name == "c" && tc.Group.Rank() == 0 {
				return sentinel
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol))
	if !errors.Is(err, sentinel) {
		t.Fatalf("sentinel lost: %v", err)
	}
	if got := rep.Task("c").Attempts; got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if exhaustedTask != "c" || exhaustedAttempts != 3 {
		t.Fatalf("OnExhausted(%q, %d), want (c, 3)", exhaustedTask, exhaustedAttempts)
	}
}

func TestExecuteCtxTaskTimeoutUnblocksBarrier(t *testing.T) {
	// One rank of a group sleeps past the per-attempt deadline while its
	// peers wait at a group barrier. The watchdog must abort the group
	// communicator so nothing deadlocks, and the attempt must fail with
	// context.DeadlineExceeded.
	g := graph.New("one")
	g.AddTask(&graph.Task{Name: "slow", Kind: graph.KindBasic, Work: 1})
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	pol := fault.Policy{TaskTimeout: 50 * time.Millisecond}
	start := time.Now()
	_, err = ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				select { // hang, but respect the attempt context
				case <-tc.Ctx.Done():
					return tc.Ctx.Err()
				case <-time.After(10 * time.Second):
				}
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol))
	if err == nil {
		t.Fatal("timeout not reported")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("barrier deadlocked for %v", elapsed)
	}
}

func TestExecuteCtxLayerTimeout(t *testing.T) {
	// The layer timeout bounds each layer on its own: a deadline armed
	// when the layer opens, which its bodies see as TaskCtx.Ctx. Its
	// expiry cancels the attempts but is not a core failure, so no replan
	// happens, and the layers before the overrun keep their spans.
	const lt = 200 * time.Millisecond
	g := graph.New("one")
	g.AddTask(&graph.Task{Name: "slow", Kind: graph.KindBasic, Work: 1})
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	one, err := (&core.Scheduler{Model: model}).Schedule(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	three := gridSchedule(2, 3, 1) // 3 layers of 2 one-rank groups
	// Every body records its layer's deadline and takes its layer's time,
	// or hangs until its attempt context ends when that time is 0.
	type layerDeadline struct {
		layer int
		at    time.Time
	}
	for _, tc := range []struct {
		name      string
		sched     *core.Schedule
		take      func(layer int) time.Duration // 0: until the deadline
		overrun   int                           // the layer that overruns; -1 for none
		wantSpans int
	}{
		{"single layer overruns", one, func(int) time.Duration { return 0 }, 0, 0},
		// A run-wide deadline would expire in layer 1.
		{"every layer has its own budget", three, func(int) time.Duration { return lt * 6 / 10 }, -1, 6},
		{"layer 2 overruns", three, func(li int) time.Duration {
			if li == 2 {
				return 0
			}
			return time.Millisecond
		}, 2, 4},
	} {
		var mu sync.Mutex
		var deadlines []layerDeadline
		pol := fault.Policy{LayerTimeout: lt, MaxRetries: 3, DegradeAndReplan: true}
		w, _ := NewWorld(2)
		rep, err := ExecuteCtx(context.Background(), w, tc.sched, func(task *graph.Task) TaskFunc {
			return func(ctx *TaskCtx) error {
				if at, ok := ctx.Ctx.Deadline(); ok {
					mu.Lock()
					deadlines = append(deadlines, layerDeadline{ctx.Layer, at})
					mu.Unlock()
				}
				var after <-chan time.Time
				if d := tc.take(ctx.Layer); d > 0 {
					after = time.After(d)
				}
				select {
				case <-ctx.Ctx.Done():
					return ctx.Ctx.Err()
				case <-after:
				}
				return nil
			}
		}, WithPolicy(pol))
		if tc.overrun < 0 {
			if err != nil {
				t.Fatalf("%s: %v\n%s", tc.name, err, rep)
			}
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: layer timeout lost: %v", tc.name, err)
		}
		if rep.Replans != 0 || rep.Retries != 0 {
			t.Fatalf("%s: layer timeout escalated to a retry or replan: %s", tc.name, rep)
		}
		if len(rep.Spans) != tc.wantSpans {
			t.Fatalf("%s: %d spans, want %d\n%s", tc.name, len(rep.Spans), tc.wantSpans, rep)
		}
		for _, sp := range rep.Spans {
			if sp.Layer >= tc.overrun && tc.overrun >= 0 {
				t.Fatalf("%s: span %+v at or past the overrun layer %d", tc.name, sp, tc.overrun)
			}
		}
		if want := len(tc.sched.Layers); tc.overrun >= 0 {
			if rep.Layers != tc.overrun {
				t.Fatalf("%s: %d layers completed, want %d", tc.name, rep.Layers, tc.overrun)
			}
		} else if rep.Layers != want {
			t.Fatalf("%s: %d layers completed, want %d", tc.name, rep.Layers, want)
		}
		// One deadline per layer, each later than the one before.
		per := map[int]time.Time{}
		for _, ld := range deadlines {
			if at, ok := per[ld.layer]; ok && !at.Equal(ld.at) {
				t.Fatalf("%s: layer %d bodies see two deadlines, %v and %v", tc.name, ld.layer, at, ld.at)
			}
			per[ld.layer] = ld.at
		}
		for li := 1; li < len(per); li++ {
			if !per[li].After(per[li-1]) {
				t.Fatalf("%s: layer %d deadline %v not after layer %d's %v", tc.name, li, per[li], li-1, per[li-1])
			}
		}
	}
}

func TestExecuteCtxInjectedRetry(t *testing.T) {
	// A scripted transient error on attempt 1 is retried and succeeds on
	// attempt 2 without the body ever observing the failure.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	inj := &fault.Injector{Script: []fault.Script{{Task: "b", Attempt: 1, Rank: 0, Kind: fault.Error}}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol), WithInjector(inj))
	if err != nil {
		t.Fatalf("injected transient error not recovered: %v", err)
	}
	if !errors.Is(errors.Join(fault.ErrInjected), fault.ErrInjected) {
		t.Fatal("sanity")
	}
	if got := rep.Task("b"); got.Attempts != 2 || got.Retries != 1 {
		t.Fatalf("task b report = %+v, want 2 attempts / 1 retry", got)
	}
}

func TestExecuteCtxCoreLossReplans(t *testing.T) {
	// A scripted core loss kills task b's group on attempt 1. Core loss
	// is not retryable, so the executor must degrade: replan the graph on
	// the surviving cores and resume from the last completed layer. The
	// computation must still complete, with every task having run.
	g, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	inj := &fault.Injector{Script: []fault.Script{{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss}}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	pol.DegradeAndReplan = true

	var mu sync.Mutex
	ran := map[string]int{}
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				mu.Lock()
				ran[task.Name]++
				mu.Unlock()
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol), WithInjector(inj), WithReplanner(diamondReplanner(t, g)))
	if err != nil {
		t.Fatalf("degrade-and-replan did not recover: %v\n%s", err, rep)
	}
	if rep.Replans != 1 {
		t.Fatalf("replans = %d, want 1: %s", rep.Replans, rep)
	}
	if rep.LostCores == 0 || rep.LostCores >= 8 {
		t.Fatalf("lost cores = %d, want in (0, 8)", rep.LostCores)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if ran[name] == 0 {
			t.Fatalf("task %q never completed: %v", name, ran)
		}
	}
	// b failed on attempt 1, so its re-execution is attempt 2 — the
	// script (keyed on attempt 1) must not re-fire.
	if got := rep.Task("b").Attempts; got != 2 {
		t.Fatalf("task b attempts = %d, want 2", got)
	}
}

func TestReplanAttemptNumbersExact(t *testing.T) {
	// Attempt numbers count every execution of a task, across a replan,
	// in both modes and both retentions. c completes attempt 1
	// beside b, whose scripted core loss replans the run; resuming at the
	// layer-1 checkpoint runs c again as attempt 2, where the script fails
	// it once, so its retry is attempt 3. b's followers hold its failed
	// attempt until c has started, so a wavefront pass cannot skip c's
	// first attempt.
	g, sched := diamondSchedule(t, 8)
	if q := coresOf(t, sched, "b"); q < 2 {
		t.Fatalf("b runs on %d core(s), want a group with followers", q)
	}
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
		{Task: "c", Attempt: 2, Rank: 0, Kind: fault.Error},
	}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	pol.DegradeAndReplan = true
	for _, mode := range execModes {
		var reps [2]*Report
		for i, ret := range retentions {
			cStarted := make(chan struct{})
			var once sync.Once
			body := func(task *graph.Task) TaskFunc {
				return func(tc *TaskCtx) error {
					switch task.Name {
					case "b":
						<-cStarted
					case "c":
						once.Do(func() { close(cStarted) })
					}
					tc.Group.Barrier()
					return nil
				}
			}
			w, _ := NewWorld(8)
			opts := append([]ExecOption{WithPolicy(pol), WithInjector(inj), WithReplanner(diamondReplanner(t, g))}, mode.opts...)
			rep, err := ExecuteCtx(context.Background(), w, sched, body, append(opts, ret.opts...)...)
			if err != nil {
				t.Fatalf("%s, %s: %v\n%s", mode.name, ret.name, err, rep)
			}
			if rep.Replans != 1 || rep.Retries != 1 {
				t.Fatalf("%s, %s: %d replans, %d retries; want 1 and 1\n%s", mode.name, ret.name, rep.Replans, rep.Retries, rep)
			}
			if got, want := rep.Task("c"), (TaskReport{Name: "c", Attempts: 3, Retries: 1, Failures: 1}); got != want {
				t.Fatalf("%s, %s: c = %+v, want %+v\n%s", mode.name, ret.name, got, want, rep)
			}
			if got, want := rep.Task("b"), (TaskReport{Name: "b", Attempts: 2, Failures: 1}); got != want {
				t.Fatalf("%s, %s: b = %+v, want %+v\n%s", mode.name, ret.name, got, want, rep)
			}
			reps[i] = rep
		}
		// a, then c's attempt 1 before the replan and b, c and d after it.
		checkRetentions(t, mode.name, reps[0], reps[1], []string{"b", "c"}, 5)
	}
}

func TestSharedNameNumbersAttemptsPerTask(t *testing.T) {
	// Attempts are numbered per task, not per name: the four tasks of
	// layer 1 are all named "w", so the script w@1 strikes each of them
	// once, and their shared Tasks entry sums their counts — in both pass
	// widths, the sequential reference and both retentions.
	sched := gridSchedule(4, 2, 1)
	for _, id := range sched.Layers[1].Layer {
		sched.Source.Task(id).Name = "w"
	}
	body := func(*graph.Task) TaskFunc { return func(*TaskCtx) error { return nil } }
	faults := []ExecOption{
		WithPolicy(fault.Policy{MaxRetries: 1}),
		WithInjector(&fault.Injector{Script: []fault.Script{{Task: "w", Attempt: 1, Rank: 0, Kind: fault.Error}}}),
	}
	run := func(opts ...ExecOption) *Report {
		w, _ := NewWorld(4)
		rep, err := ExecuteCtx(context.Background(), w, sched, body, append(faults, opts...)...)
		if err != nil {
			t.Fatalf("%v\n%s", err, rep)
		}
		return rep
	}
	for _, mode := range []struct {
		name string
		run  func(opts ...ExecOption) *Report
	}{
		{"layered", run},
		{"wavefront", func(opts ...ExecOption) *Report { return run(append(opts, WithWavefront())...) }},
		{"reference", func(opts ...ExecOption) *Report {
			return runSequential(t, sched, 0, 2, body, append(faults, opts...)...)
		}},
	} {
		var reps [2]*Report
		for i, ret := range retentions {
			rep := mode.run(ret.opts...)
			if rep.Retries != 4 {
				t.Fatalf("%s, %s: %d retries, want one per task named w (4)\n%s", mode.name, ret.name, rep.Retries, rep)
			}
			if got, want := rep.Task("w"), (TaskReport{Name: "w", Attempts: 8, Retries: 4, Failures: 4}); got != want {
				t.Fatalf("%s, %s: w = %+v, want %+v\n%s", mode.name, ret.name, got, want, rep)
			}
			reps[i] = rep
		}
		checkRetentions(t, mode.name, reps[0], reps[1], []string{"w"}, 8)
	}
}

func TestExecuteCtxReplanWithoutReplanner(t *testing.T) {
	// Core loss with DegradeAndReplan but no replanner: the original
	// error surfaces instead of a nil-deref or silent success.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	inj := &fault.Injector{Script: []fault.Script{{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss}}}
	pol := fault.DefaultPolicy()
	pol.DegradeAndReplan = true
	_, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { tc.Group.Barrier(); return nil }
	}, WithPolicy(pol), WithInjector(inj))
	if !errors.Is(err, fault.ErrCoreLost) {
		t.Fatalf("core loss lost: %v", err)
	}
}

func TestExecuteCtxReplanBudget(t *testing.T) {
	// MaxReplans bounds the escalations: losing cores more often than the
	// budget allows must fail with the budget error.
	g, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
		{Task: "b", Attempt: 2, Rank: 0, Kind: fault.CoreLoss},
	}}
	pol := fault.DefaultPolicy()
	pol.DegradeAndReplan = true
	pol.MaxReplans = 1
	_, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { tc.Group.Barrier(); return nil }
	}, WithPolicy(pol), WithInjector(inj), WithReplanner(diamondReplanner(t, g)))
	if err == nil || !strings.Contains(err.Error(), "replan budget") {
		t.Fatalf("replan budget not enforced: %v", err)
	}
}

func TestExecuteCtxCancellation(t *testing.T) {
	// Canceling the caller's context stops the execution promptly, fails
	// with context.Canceled, and never triggers retries or replans.
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	ctx, cancel := context.WithCancel(context.Background())
	pol := fault.DefaultPolicy()
	pol.DegradeAndReplan = true
	started := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = ExecuteCtx(ctx, w, sched, func(task *graph.Task) TaskFunc {
			return func(tc *TaskCtx) error {
				once.Do(func() { close(started) })
				select {
				case <-tc.Ctx.Done():
					return tc.Ctx.Err()
				case <-time.After(10 * time.Second):
				}
				tc.Group.Barrier()
				return nil
			}
		}, WithPolicy(pol))
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the execution")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rep.Replans != 0 || rep.Retries != 0 {
		t.Fatalf("cancellation escalated: %s", rep)
	}
}

func TestExecuteCtxWorldTooSmall(t *testing.T) {
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(4)
	if _, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error { return nil }
	}); err == nil {
		t.Fatal("oversized schedule accepted")
	}
}

func TestExecuteHierarchicalCtx(t *testing.T) {
	// A composed loop task under the fault-tolerant executor: the body
	// runs the scheduled sub-graph the requested number of times, with a
	// scripted transient failure on the composed task's first attempt.
	inner := graph.New("body")
	inner.AddTask(&graph.Task{Name: "step", Kind: graph.KindBasic, Work: 1e5})
	inner.AddStartStop()
	top := graph.New("loop")
	top.AddTask(&graph.Task{Name: "iter", Kind: graph.KindComposed, Sub: inner, Work: 1e5})
	top.AddStartStop()
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	hs, err := (&core.Scheduler{Model: model}).ScheduleHierarchical(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	inj := &fault.Injector{Script: []fault.Script{{Task: "iter", Attempt: 1, Rank: 0, Kind: fault.Error}}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	var steps atomic.Int64
	const trips = 3
	rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				steps.Add(1)
			}
			tc.Group.Barrier()
			return nil
		}
	}, func(task *graph.Task, done int) bool { return done < trips }, WithPolicy(pol), WithInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Task("iter"); got.Attempts != 2 || got.Retries != 1 {
		t.Fatalf("iter report = %+v, want 2 attempts / 1 retry", got)
	}
	if got := steps.Load(); got != trips {
		t.Fatalf("step ran %d times in the successful attempt, want %d", got, trips)
	}
}
