package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// scheduleHierarchical schedules a hierarchical graph on P symbolic cores
// of a CHiC subset.
func scheduleHierarchical(t *testing.T, g *graph.Graph, P int) *core.HierarchicalSchedule {
	t.Helper()
	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	hs, err := (&core.Scheduler{Model: model}).ScheduleHierarchical(g, P)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

// loopOf wraps body in a one-node top-level graph: a composed task named
// name whose body graph is body.
func loopOf(name string, body *graph.Graph) *graph.Graph {
	top := graph.New(name)
	top.AddTask(&graph.Task{Name: name, Kind: graph.KindComposed, Sub: body, Work: body.TotalWork()})
	top.AddStartStop()
	return top
}

// iterSchedule is a composed task "iter" running a one-task body "step" on
// all 4 cores.
func iterSchedule(t *testing.T) *core.HierarchicalSchedule {
	t.Helper()
	inner := graph.New("body")
	inner.AddTask(&graph.Task{Name: "step", Kind: graph.KindBasic, Work: 1e5})
	inner.AddStartStop()
	hs := scheduleHierarchical(t, loopOf("iter", inner), 4)
	if q := coresOf(t, hs.Top, "iter"); q != 4 {
		t.Fatalf("iter runs on %d cores, want 4", q)
	}
	return hs
}

// barrierBody is a group-collective body doing no work.
func barrierBody(*graph.Task) TaskFunc {
	return func(tc *TaskCtx) error { tc.Group.Barrier(); return nil }
}

// trips returns an iterations callback running every composed task n
// times.
func trips(n int) func(*graph.Task, int) bool {
	return func(_ *graph.Task, done int) bool { return done < n }
}

// innerSpans returns the spans of trip `trip` of the composed task named
// composed, with the "<composed>[<trip>]/" prefix stripped, from the
// attempt of the composed task that succeeded: the inner spans of a failed
// attempt all ended before the successful attempt started.
func innerSpans(t *testing.T, rep *Report, composed string, trip int) []TaskSpan {
	t.Helper()
	var outer *TaskSpan
	for i, s := range rep.Spans {
		if s.Name == composed {
			if outer != nil {
				t.Fatalf("composed task %q has two successful spans", composed)
			}
			outer = &rep.Spans[i]
		}
	}
	if outer == nil || !outer.Composed {
		t.Fatalf("composed task %q has no span marked Composed", composed)
	}
	prefix := fmt.Sprintf("%s[%d]/", composed, trip)
	var inner []TaskSpan
	for _, s := range rep.Spans {
		if strings.HasPrefix(s.Name, prefix) && s.Start >= outer.Start {
			if s.End > outer.End {
				t.Fatalf("inner span %q ends at %v, after its composed task (%v)", s.Name, s.End, outer.End)
			}
			s.Name = strings.TrimPrefix(s.Name, prefix)
			inner = append(inner, s)
		}
	}
	return inner
}

func TestPropertyHierarchicalMatchesSequential(t *testing.T) {
	// The differential property one level down: random inner DAGs inside
	// a while node next to a sibling task, in both modes, with and
	// without injected faults. Outputs must be bitwise identical to the
	// sequential reference recursing into the composed task; the top-level
	// spans and every trip's inner spans must each pass the execution
	// checks against their own schedule; Report.Layers counts top-level
	// layers; and busy core-time fits in P×Wall. Without a deadline the
	// peak goroutine count is the P top-level workers plus the q workers
	// of the while group; under a policy deadline (DefaultPolicy's
	// TaskTimeout) every worker of both levels may wait on one goroutine
	// running its share, 2(P+q).
	rng := rand.New(rand.NewSource(5))
	deadline := fault.DefaultPolicy()
	deadline.MaxRetries = 20
	deadline.BaseBackoff = 50 * time.Microsecond
	deadline.MaxBackoff = time.Millisecond // a composed retry re-runs the whole loop
	coop := deadline
	coop.TaskTimeout = 0
	faults := []struct {
		name     string
		pol      *fault.Policy
		deadline bool
	}{{"no faults", nil, false}, {"faults", &coop, false}, {"faults, deadline", &deadline, true}}
	for trial := 0; trial < 6; trial++ {
		P := []int{4, 6, 8}[trial%3]
		inner := randomExecDAG(rng)
		top := graph.New("top")
		init := top.AddBasic("init", 1e6)
		loop := top.AddTask(&graph.Task{Name: "while", Kind: graph.KindComposed, Sub: inner, Work: inner.TotalWork()})
		side := top.AddBasic("side", 1e6*(1+9*rng.Float64()))
		fini := top.AddBasic("fini", 1e6)
		top.MustEdge(init, loop, 8)
		top.MustEdge(init, side, 8)
		top.MustEdge(loop, fini, 8)
		top.MustEdge(side, fini, 8)
		hs := scheduleHierarchical(t, top, P)
		var sub *core.HierarchicalSchedule
		for _, s := range hs.Sub {
			sub = s // the only composed task: the while node
		}
		q := coresOf(t, hs.Top, "while")
		innerTask := make(map[*graph.Task]bool)
		for _, task := range inner.Tasks() {
			innerTask[task] = true
		}
		n := 1 + rng.Intn(3)

		// The iterations callback announces the trip; inner bodies record
		// under it, so a task run in the wrong trip shows in the outputs.
		var trip atomic.Int64
		iterations := func(_ *graph.Task, done int) bool {
			trip.Store(int64(done))
			return done < n
		}
		body := func(out *sync.Map, probe func()) func(*graph.Task) TaskFunc {
			outer := recordingBody(out)
			return func(task *graph.Task) TaskFunc {
				if !innerTask[task] {
					return outer(task)
				}
				return func(tc *TaskCtx) error {
					probe()
					keyed := &graph.Task{Name: fmt.Sprintf("%s@%d", task.Name, trip.Load())}
					return outer(keyed)(tc)
				}
			}
		}

		for _, fc := range faults {
			var opts []ExecOption
			if fc.pol != nil {
				inj := &fault.Injector{Seed: int64(trial + 1), PError: 0.04, PPanic: 0.02, PDelay: 0.05, Delay: 100 * time.Microsecond}
				opts = []ExecOption{WithPolicy(*fc.pol), WithInjector(inj)}
			}
			var refOut sync.Map
			rrep := referenceHierarchical(t, hs, body(&refOut, func() {}), iterations, opts...)
			ref := recordings(&refOut)
			for _, mode := range execModes {
				w, _ := NewWorld(P)
				var out sync.Map
				var peak atomic.Int64
				baseline := liveGoroutines()
				bound := P + q
				if fc.deadline {
					bound *= 2
				}
				probe := func() {
					// Confirm a high NumGoroutine sample with exact counts
					// (see TestWavefrontPeakGoroutinesConstant), polled for
					// up to a second: workers of a finished trip that have
					// called wg.Done but not yet exited still count, and on
					// a loaded host they may not run again for over 1 ms.
					limit := int64(baseline + bound)
					n := int64(runtime.NumGoroutine())
					if n > limit {
						n = int64(liveGoroutines())
						for settle := time.Now().Add(time.Second); n > limit && time.Now().Before(settle); {
							time.Sleep(time.Millisecond)
							n = int64(liveGoroutines())
						}
					}
					for pk := peak.Load(); n > pk && !peak.CompareAndSwap(pk, n); pk = peak.Load() {
					}
				}
				rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, body(&out, probe), iterations,
					append(opts, mode.opts...)...)
				if err != nil {
					t.Fatalf("trial %d, %s, %s: %v\n%s", trial, mode.name, fc.name, err, rep)
				}
				compareBitwise(t, ref, recordings(&out))
				if rep.Retries != rrep.Retries || rep.Panics != rrep.Panics {
					t.Fatalf("trial %d, %s, %s: retries/panics = %d/%d, reference %d/%d",
						trial, mode.name, fc.name, rep.Retries, rep.Panics, rrep.Retries, rrep.Panics)
				}
				var topSpans []TaskSpan
				for _, s := range rep.Spans {
					if !strings.Contains(s.Name, "/") {
						topSpans = append(topSpans, s)
					}
				}
				checkSpans(t, hs.Top, 0, len(hs.Top.Layers), topSpans, mode.layered)
				for k := 0; k < n; k++ {
					checkSpans(t, sub.Top, 0, len(sub.Top.Layers), innerSpans(t, rep, "while", k), mode.layered)
				}
				if rep.Layers != len(hs.Top.Layers) {
					t.Fatalf("trial %d, %s: Report.Layers = %d, want %d top-level layers",
						trial, mode.name, rep.Layers, len(hs.Top.Layers))
				}
				if busy, _, _ := rep.Utilization(); busy > time.Duration(P)*rep.Wall {
					t.Fatalf("trial %d, %s: busy %v above P×Wall = %v", trial, mode.name, busy, time.Duration(P)*rep.Wall)
				}
				if extra := int(peak.Load()) - baseline; extra > bound {
					t.Fatalf("trial %d, %s, %s: %d extra goroutines, want at most %d", trial, mode.name, fc.name, extra, bound)
				}
			}
		}
	}
}

func TestHierarchicalReplannerResumesAtCheckpoint(t *testing.T) {
	// WithHierarchicalReplanner end to end: a scripted core loss on the
	// sibling task beside a while node exhausts its group in layer 1, so
	// the execution replans the whole hierarchy on the survivors and
	// resumes at the layer-1 checkpoint, where the while node runs its
	// trips again on sub-schedules for its new group size. In both pass
	// widths, with and without a deadline: one replan, the sibling's cores
	// lost, and outputs bitwise equal to the reference run of the old
	// hierarchy up to the checkpoint and of the replanned one after it.
	const P, n, checkpoint = 8, 2, 1
	inner := randomExecDAG(rand.New(rand.NewSource(3)))
	top := graph.New("top")
	init := top.AddBasic("init", 1e6)
	loop := top.AddTask(&graph.Task{Name: "while", Kind: graph.KindComposed, Sub: inner, Work: inner.TotalWork()})
	// Communication makes side scale sublinearly, so the planner runs it
	// beside the while node on a group of its own.
	side := top.AddTask(&graph.Task{Name: "side", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 22, CommCount: 16})
	fini := top.AddBasic("fini", 1e6)
	top.MustEdge(init, loop, 8)
	top.MustEdge(init, side, 8)
	top.MustEdge(loop, fini, 8)
	top.MustEdge(side, fini, 8)
	hs := scheduleHierarchical(t, top, P)
	lost := coresOf(t, hs.Top, "side")
	if lost >= P {
		t.Fatalf("side shares the while node's group (%d of %d cores): nothing survives its loss", lost, P)
	}
	replanned := scheduleHierarchical(t, top, P-lost)
	t.Logf("side on %d of %d cores, while on %d", lost, P, coresOf(t, hs.Top, "while"))

	var refOut sync.Map
	cfg := newExecConfig(nil)
	ref := NewReport()
	ref.begin(P)
	for _, part := range []struct {
		hs       *core.HierarchicalSchedule
		from, to int
	}{{hs, 0, checkpoint}, {replanned, checkpoint, len(replanned.Top.Layers)}} {
		bodies := sequentialBodies(part.hs, recordingBody(&refOut), trips(n), cfg, ref)
		if err := sequential(part.hs.Top, part.from, part.to, bodies, cfg, ref); err != nil {
			t.Fatalf("reference: %v\n%s", err, ref)
		}
	}
	want := recordings(&refOut)

	inj := &fault.Injector{Script: []fault.Script{{Task: "side", Attempt: 1, Rank: 0, Kind: fault.CoreLoss}}}
	for _, deadline := range []bool{false, true} {
		pol := fault.DefaultPolicy()
		pol.BaseBackoff = 50 * time.Microsecond
		pol.DegradeAndReplan = true
		if !deadline {
			pol.TaskTimeout = 0
		}
		for _, mode := range execModes {
			survivors := 0
			replan := func(_ context.Context, s int) (*core.HierarchicalSchedule, error) {
				survivors = s
				return scheduleHierarchical(t, top, s), nil
			}
			w, _ := NewWorld(P)
			var out sync.Map
			rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, recordingBody(&out), trips(n),
				append([]ExecOption{WithPolicy(pol), WithInjector(inj), WithHierarchicalReplanner(replan)}, mode.opts...)...)
			if err != nil {
				t.Fatalf("%s, deadline %v: %v\n%s", mode.name, deadline, err, rep)
			}
			compareBitwise(t, want, recordings(&out))
			if rep.Replans != 1 || rep.LostCores != lost || survivors != P-lost || rep.Layers != len(hs.Top.Layers) {
				t.Fatalf("%s, deadline %v: %d replans on %d survivors, %d cores lost, %d layers done; want 1, %d, %d, %d\n%s",
					mode.name, deadline, rep.Replans, survivors, rep.LostCores, rep.Layers, P-lost, lost, len(hs.Top.Layers), rep)
			}
		}
	}
}

func TestHierarchicalInnerFaultRetriesInnerTask(t *testing.T) {
	// A fault scripted on one trip of an inner task retries that task
	// inside the loop; the composed task runs once.
	hs := iterSchedule(t)
	inj := &fault.Injector{Script: []fault.Script{{Task: "iter[1]/step", Attempt: 1, Rank: 0, Kind: fault.Error}}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	for _, mode := range execModes {
		w, _ := NewWorld(4)
		rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, barrierBody, trips(3),
			append([]ExecOption{WithPolicy(pol), WithInjector(inj)}, mode.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, rep)
		}
		if got := rep.Task("iter[1]/step"); got.Attempts != 2 || got.Retries != 1 {
			t.Fatalf("%s: iter[1]/step = %+v, want 2 attempts / 1 retry", mode.name, got)
		}
		if got := rep.Task("iter"); got.Attempts != 1 || got.Retries != 0 {
			t.Fatalf("%s: iter = %+v, want 1 attempt", mode.name, got)
		}
		if rep.Retries != 1 {
			t.Fatalf("%s: %d retries in total, want 1\n%s", mode.name, rep.Retries, rep)
		}
	}
}

func TestHierarchicalComposedRetryContinuesInnerNumbering(t *testing.T) {
	// A composed task retried as a whole runs its trips again, and their
	// inner tasks continue the attempt numbering of the failed attempt:
	// iter[0]/step fails attempts 1 and 2, exhausting its retry and with
	// it iter's first attempt, so iter's retry runs it as attempt 3 — in
	// both modes and both retentions.
	hs := iterSchedule(t)
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "iter[0]/step", Attempt: 1, Rank: 0, Kind: fault.Error},
		{Task: "iter[0]/step", Attempt: 2, Rank: 0, Kind: fault.Error},
	}}
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 1
	pol.BaseBackoff = 100 * time.Microsecond
	for _, mode := range execModes {
		var reps [2]*Report
		for i, ret := range retentions {
			w, _ := NewWorld(4)
			opts := append([]ExecOption{WithPolicy(pol), WithInjector(inj)}, mode.opts...)
			rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, barrierBody, trips(2), append(opts, ret.opts...)...)
			if err != nil {
				t.Fatalf("%s, %s: %v\n%s", mode.name, ret.name, err, rep)
			}
			if got, want := rep.Task("iter[0]/step"), (TaskReport{Name: "iter[0]/step", Attempts: 3, Retries: 1, Failures: 2}); got != want {
				t.Fatalf("%s, %s: iter[0]/step = %+v, want %+v\n%s", mode.name, ret.name, got, want, rep)
			}
			if got, want := rep.Task("iter"), (TaskReport{Name: "iter", Attempts: 2, Retries: 1, Failures: 1}); got != want {
				t.Fatalf("%s, %s: iter = %+v, want %+v\n%s", mode.name, ret.name, got, want, rep)
			}
			reps[i] = rep
		}
		// The retried iter's two trips of step, and iter itself.
		checkRetentions(t, mode.name, reps[0], reps[1], []string{"iter", "iter[0]/step"}, 3)
	}
}

func TestHierarchicalSharedComposedNames(t *testing.T) {
	// Two composed tasks named "loop" run one after the other, with bodies
	// of one and five tasks, so their inner tasks share the names
	// loop[<trip>]/<inner>. Each body still numbers its own tasks'
	// attempts: loop[1]/step@1 strikes the step of both bodies, and
	// loop[0]/x@1 the one x. The shared entries sum their tasks' counts —
	// in both modes and both retentions.
	small := graph.New("small")
	small.AddTask(&graph.Task{Name: "step", Kind: graph.KindBasic, Work: 1e5})
	small.AddStartStop()
	big := graph.New("big")
	prev := big.AddTask(&graph.Task{Name: "step", Kind: graph.KindBasic, Work: 1e5})
	for _, name := range []string{"x", "y", "z", "u"} {
		id := big.AddTask(&graph.Task{Name: name, Kind: graph.KindBasic, Work: 1e5})
		big.MustEdge(prev, id, 8)
		prev = id
	}
	big.AddStartStop()
	top := graph.New("top")
	first := top.AddTask(&graph.Task{Name: "loop", Kind: graph.KindComposed, Sub: small, Work: small.TotalWork()})
	second := top.AddTask(&graph.Task{Name: "loop", Kind: graph.KindComposed, Sub: big, Work: big.TotalWork()})
	top.MustEdge(first, second, 8)
	top.AddStartStop()
	hs := scheduleHierarchical(t, top, 4)
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "loop[1]/step", Attempt: 1, Rank: 0, Kind: fault.Error},
		{Task: "loop[0]/x", Attempt: 1, Rank: 0, Kind: fault.Error},
	}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	for _, mode := range execModes {
		var reps [2]*Report
		for i, ret := range retentions {
			w, _ := NewWorld(4)
			opts := append([]ExecOption{WithPolicy(pol), WithInjector(inj)}, mode.opts...)
			rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, barrierBody, trips(2), append(opts, ret.opts...)...)
			if err != nil {
				t.Fatalf("%s, %s: %v\n%s", mode.name, ret.name, err, rep)
			}
			for _, want := range []TaskReport{
				{Name: "loop[1]/step", Attempts: 4, Retries: 2, Failures: 2},
				{Name: "loop[0]/x", Attempts: 2, Retries: 1, Failures: 1},
			} {
				if got := rep.Task(want.Name); got != want {
					t.Fatalf("%s, %s: %s = %+v, want %+v\n%s", mode.name, ret.name, want.Name, got, want, rep)
				}
			}
			if rep.Retries != 3 {
				t.Fatalf("%s, %s: %d retries, want 3\n%s", mode.name, ret.name, rep.Retries, rep)
			}
			reps[i] = rep
		}
		// The two loops, and two trips of their one and five tasks.
		checkRetentions(t, mode.name, reps[0], reps[1], []string{"loop[1]/step", "loop[0]/x"}, 14)
		if got := reps[0].Task("loop"); got != (TaskReport{Name: "loop", Attempts: 2}) {
			t.Fatalf("%s: loop = %+v, want one attempt of each", mode.name, got)
		}
	}
}

func TestHierarchicalIterationsOncePerTrip(t *testing.T) {
	// The iterations contract: rank 0 of the composed task's group calls
	// it once per trip and once to stop — 4 calls for 3 trips on a 4-rank
	// group, per attempt of the composed task. A fault on a follower rank
	// of the composed task fails its first attempt after the loop ran, so
	// two attempts make 8 calls.
	hs := iterSchedule(t)
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	for _, mode := range execModes {
		for _, script := range [][]fault.Script{nil, {{Task: "iter", Attempt: 1, Rank: 1, Kind: fault.Error}}} {
			var calls atomic.Int64
			iterations := func(_ *graph.Task, done int) bool {
				calls.Add(1)
				return done < 3
			}
			w, _ := NewWorld(4)
			rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, barrierBody, iterations,
				append([]ExecOption{WithPolicy(pol), WithInjector(&fault.Injector{Script: script})}, mode.opts...)...)
			if err != nil {
				t.Fatalf("%s: %v\n%s", mode.name, err, rep)
			}
			attempts := rep.Task("iter").Attempts
			if attempts != 1+len(script) {
				t.Fatalf("%s: iter ran %d attempts, want %d", mode.name, attempts, 1+len(script))
			}
			if got := calls.Load(); got != int64(4*attempts) {
				t.Fatalf("%s: iterations called %d times over %d attempt(s), want 4 per attempt", mode.name, got, attempts)
			}
		}
	}
}

func TestHierarchicalNestedNames(t *testing.T) {
	// Names compose when composed tasks nest: trip 1 of the inner loop in
	// trip 0 of the outer one runs "outer[0]/loop[1]/step", and a fault
	// scripted under that name retries exactly that task.
	inner := graph.New("body")
	inner.AddTask(&graph.Task{Name: "step", Kind: graph.KindBasic, Work: 1e5})
	inner.AddStartStop()
	hs := scheduleHierarchical(t, loopOf("outer", loopOf("loop", inner)), 4)
	inj := &fault.Injector{Script: []fault.Script{{Task: "outer[0]/loop[1]/step", Attempt: 1, Rank: 0, Kind: fault.Error}}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	for _, mode := range execModes {
		w, _ := NewWorld(4)
		rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, barrierBody, trips(2),
			append([]ExecOption{WithPolicy(pol), WithInjector(inj)}, mode.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, rep)
		}
		for o := 0; o < 2; o++ {
			for l := 0; l < 2; l++ {
				name := fmt.Sprintf("outer[%d]/loop[%d]/step", o, l)
				want := 1
				if o == 0 && l == 1 {
					want = 2
				}
				if got := rep.Task(name).Attempts; got != want {
					t.Fatalf("%s: %s ran %d attempts, want %d\n%s", mode.name, name, got, want, rep)
				}
			}
		}
		composed := 0
		for _, s := range rep.Spans {
			if s.Composed {
				composed++
			}
		}
		// outer, outer[0]/loop, outer[1]/loop, and four steps.
		if len(rep.Spans) != 7 || composed != 3 {
			t.Fatalf("%s: %d spans (%d composed), want 7 (3 composed)", mode.name, len(rep.Spans), composed)
		}
		if rep.Layers != len(hs.Top.Layers) {
			t.Fatalf("%s: Report.Layers = %d, want %d", mode.name, rep.Layers, len(hs.Top.Layers))
		}
	}
}
