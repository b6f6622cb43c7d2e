package runtime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// randomExecDAG generates a random M-task DAG for the layered-vs-wavefront
// equivalence property (forward edges only, occasionally with start/stop
// markers so the schedules contain tasks outside all layers).
func randomExecDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New("rand")
	n := 3 + rng.Intn(20)
	ids := make([]graph.TaskID, n)
	for i := range ids {
		ids[i] = g.AddBasic(fmt.Sprintf("t%02d", i), 1e6*(1+9*rng.Float64()))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				g.MustEdge(ids[i], ids[j], 8)
			}
		}
	}
	if rng.Float64() < 0.3 {
		g.AddStartStop()
	}
	return g
}

func randomExecSchedule(t *testing.T, g *graph.Graph, P int) *core.Schedule {
	t.Helper()
	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, P)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// recordingBody is a deterministic group-collective workload: every rank
// contributes a value derived from the task name and its group rank, the
// group folds the contributions (collectives fold in rank order, so the
// result is bitwise deterministic), and rank 0 records the final value.
// Identical schedules must therefore produce bitwise identical recordings
// regardless of task launch order, retries, or executor mode.
func recordingBody(out *sync.Map) func(t *graph.Task) TaskFunc {
	return func(t *graph.Task) TaskFunc {
		name := t.Name
		return func(tc *TaskCtx) error {
			seed := 0.0
			for i, ch := range name {
				seed += float64(ch) * float64(i+1)
			}
			contrib := math.Sin(seed*0.01 + 1.7*float64(tc.Group.Rank()))
			sum := tc.Group.AllreduceSum(contrib)
			gathered := tc.Group.Allgather([]float64{contrib + sum})
			acc := sum
			for _, v := range gathered {
				acc = acc*1.0000001 + math.Cos(v)
			}
			if tc.Group.Rank() == 0 {
				out.Store(name, acc)
			}
			return nil
		}
	}
}

// runRecorded executes the schedule with recordingBody and returns the
// per-task recordings.
func runRecorded(t *testing.T, sched *core.Schedule, P int, opts ...ExecOption) (map[string]float64, *Report) {
	t.Helper()
	w, _ := NewWorld(P)
	var out sync.Map
	rep, err := ExecuteCtx(context.Background(), w, sched, recordingBody(&out), opts...)
	if err != nil {
		t.Fatalf("execution failed: %v\n%s", err, rep)
	}
	return recordings(&out), rep
}

// referenceRecorded is runRecorded on the sequential reference
// interpreter.
func referenceRecorded(t *testing.T, sched *core.Schedule, opts ...ExecOption) (map[string]float64, *Report) {
	t.Helper()
	var out sync.Map
	rep := runSequential(t, sched, 0, len(sched.Layers), recordingBody(&out), opts...)
	return recordings(&out), rep
}

func recordings(out *sync.Map) map[string]float64 {
	m := make(map[string]float64)
	out.Range(func(k, v any) bool {
		m[k.(string)] = v.(float64)
		return true
	})
	return m
}

// compareBitwise fails unless the two recordings cover the same tasks with
// bitwise identical values.
func compareBitwise(t *testing.T, want, got map[string]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("recorded %d tasks, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("task %q not recorded", name)
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("task %q diverged: %x vs %x", name, math.Float64bits(w), math.Float64bits(g))
		}
	}
}

func TestPropertyWavefrontMatchesLayered(t *testing.T) {
	// The equivalence property of the two execution modes: on the same
	// schedule, dependence-driven launch must produce bitwise identical
	// results to layer-synchronous execution, and both to the sequential
	// reference interpreter, for random DAGs and varying core counts.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		g := randomExecDAG(rng)
		P := []int{4, 6, 8}[rng.Intn(3)]
		sched := randomExecSchedule(t, g, P)
		layered, lrep := runRecorded(t, sched, P)
		wave, wrep := runRecorded(t, sched, P, WithWavefront())
		compareBitwise(t, layered, wave)
		checkExecution(t, sched, lrep, true)
		checkExecution(t, sched, wrep, false)
		if lrep.Layers != len(sched.Layers) || wrep.Layers != len(sched.Layers) {
			t.Fatalf("trial %d: layers done = %d (layered) / %d (wavefront), want %d",
				trial, lrep.Layers, wrep.Layers, len(sched.Layers))
		}
		if len(wrep.Spans) != len(lrep.Spans) {
			t.Fatalf("trial %d: %d wavefront spans, %d layered", trial, len(wrep.Spans), len(lrep.Spans))
		}
		ref, _ := referenceRecorded(t, sched)
		compareBitwise(t, ref, layered)
	}
}

func TestPropertyWavefrontFaultsMatchLayered(t *testing.T) {
	// The equivalence must survive injected errors, panics and delays with
	// retries: the injector is deterministic per (task, attempt, rank), so
	// both modes see the same faults and must converge to the same bits.
	rng := rand.New(rand.NewSource(7))
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 20
	pol.BaseBackoff = 50 * time.Microsecond
	for trial := 0; trial < 6; trial++ {
		g := randomExecDAG(rng)
		sched := randomExecSchedule(t, g, 8)
		inj := &fault.Injector{Seed: int64(trial + 1), PError: 0.08, PPanic: 0.04, PDelay: 0.05, Delay: 100 * time.Microsecond}
		layered, lrep := runRecorded(t, sched, 8, WithPolicy(pol), WithInjector(inj))
		wave, wrep := runRecorded(t, sched, 8, WithPolicy(pol), WithInjector(inj), WithWavefront())
		compareBitwise(t, layered, wave)
		checkExecution(t, sched, lrep, true)
		checkExecution(t, sched, wrep, false)
		if wrep.Layers != len(sched.Layers) {
			t.Fatalf("trial %d: wavefront completed %d of %d layers", trial, wrep.Layers, len(sched.Layers))
		}
	}
}

func TestWavefrontCrossLayerOverlap(t *testing.T) {
	// The defining behavior of the wavefront mode, deterministically: a
	// layer-0 task blocks until a layer-1 task on the other chain has
	// started. Layered execution cannot finish this program (no layer-1
	// task starts before the layer-0 join); wavefront execution must.
	sched := ImbalancedWorkload(2, 2)
	release := make(chan struct{})
	body := func(t *graph.Task) TaskFunc {
		switch t.Name {
		case "slow[0]": // layer 0, chain A: waits for the layer-1 starter
			return func(tc *TaskCtx) error {
				select {
				case <-release:
					return nil
				case <-tc.Ctx.Done():
					return tc.Ctx.Err()
				}
			}
		case "slow[1]": // layer 1, chain B: runs while slow[0] still blocks
			return func(tc *TaskCtx) error {
				close(release)
				return nil
			}
		default:
			return func(tc *TaskCtx) error { return nil }
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, _ := NewWorld(2)
	rep, err := ExecuteCtx(ctx, w, sched, body, WithWavefront())
	if err != nil {
		t.Fatalf("wavefront could not overlap layers: %v\n%s", err, rep)
	}
	if rep.Layers != 2 {
		t.Fatalf("layers done = %d, want 2", rep.Layers)
	}
}

func TestBodyContextSameInEveryPass(t *testing.T) {
	// A body sees one context in every pass — layered, wavefront, or the
	// inner pass of a composed task in either mode: its group
	// communicator, its place in the schedule of its level and a live
	// attempt context. The two top-level legs run the composed task's
	// sub-schedule, so every leg runs the same schedule.
	hs := scheduleHierarchical(t, loopOf("loop", diamondGraph()), 8)
	if q := coresOf(t, hs.Top, "loop"); q != 8 {
		t.Fatalf("loop runs on %d cores, want 8", q)
	}
	if len(hs.Sub) != 1 {
		t.Fatalf("%d sub-schedules, want 1", len(hs.Sub))
	}
	var sub *core.Schedule
	for _, s := range hs.Sub {
		sub = s.Top
	}
	type view struct {
		size, worldRank, layer, group int
		kind                          CommKind
		live                          bool
	}
	run := func(name string, exec func(body func(*graph.Task) TaskFunc) (*Report, error)) map[string]view {
		var mu sync.Mutex
		views := make(map[string]view)
		rep, err := exec(func(task *graph.Task) TaskFunc {
			return func(tc *TaskCtx) error {
				tc.Group.Barrier()
				v := view{tc.Group.Size(), tc.Group.WorldRank(), tc.Layer, tc.GroupIndex, tc.Group.Kind(), tc.Ctx.Err() == nil}
				mu.Lock()
				views[fmt.Sprintf("%s/%d", tc.Task.Name, tc.Group.Rank())] = v
				mu.Unlock()
				return nil
			}
		})
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, rep)
		}
		return views
	}
	var want map[string]view
	for _, mode := range execModes {
		for _, leg := range []struct {
			name string
			exec func(body func(*graph.Task) TaskFunc) (*Report, error)
		}{
			{mode.name, func(body func(*graph.Task) TaskFunc) (*Report, error) {
				w, _ := NewWorld(8)
				return ExecuteCtx(context.Background(), w, sub, body, mode.opts...)
			}},
			{mode.name + " composed", func(body func(*graph.Task) TaskFunc) (*Report, error) {
				w, _ := NewWorld(8)
				return ExecuteHierarchicalCtx(context.Background(), w, hs, body, nil, mode.opts...)
			}},
		} {
			got := run(leg.name, leg.exec)
			if want == nil {
				want = got
				if len(want) == 0 {
					t.Fatalf("%s: no body ran", leg.name)
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: bodies saw\n%v\nwant\n%v", leg.name, got, want)
			}
		}
	}
}

func TestWavefrontCoreLossReplan(t *testing.T) {
	// Degrade-and-replan under the wavefront dispatcher: an exhausted
	// core-loss failure drains the in-flight frontier to the completed
	// layer prefix and replans on the survivors, like the layered mode.
	g, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
	}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	pol.DegradeAndReplan = true
	var out sync.Map
	rep, err := ExecuteCtx(context.Background(), w, sched, recordingBody(&out),
		WithPolicy(pol), WithInjector(inj), WithReplanner(diamondReplanner(t, g)), WithWavefront())
	if err != nil {
		t.Fatalf("wavefront degrade-and-replan failed: %v\n%s", err, rep)
	}
	if rep.Replans != 1 {
		t.Fatalf("replans = %d, want 1\n%s", rep.Replans, rep)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, ok := out.Load(name); !ok {
			t.Fatalf("task %q never completed\n%s", name, rep)
		}
	}
	if rep.Layers < len(sched.Layers) {
		t.Fatalf("layers done = %d, want at least %d\n%s", rep.Layers, len(sched.Layers), rep)
	}
}

func TestWavefrontImbalancedFasterWithTimeline(t *testing.T) {
	// On the canonical imbalanced workload the wavefront mode must beat
	// the layered wall time, and the Report timeline must show the why:
	// a layer-1 task starting before layer 0 has fully finished.
	if testing.Short() {
		t.Skip("timing test")
	}
	const layers = 4
	slow, fast := 20*time.Millisecond, 2*time.Millisecond
	sched := ImbalancedWorkload(2, layers)
	body := ImbalancedBody(slow, fast)
	w, _ := NewWorld(2)

	lrep, err := ExecuteCtx(context.Background(), w, sched, body)
	if err != nil {
		t.Fatal(err)
	}
	wrep, err := ExecuteCtx(context.Background(), w, sched, body, WithWavefront())
	if err != nil {
		t.Fatal(err)
	}
	if wrep.Wall >= lrep.Wall {
		t.Fatalf("wavefront (%v) not faster than layered (%v)", wrep.Wall, lrep.Wall)
	}

	// The timeline explains the win: under wavefront some layer-1 span
	// starts before the last layer-0 span ends; under layered none can.
	lastEnd := func(spans []TaskSpan, layer int) time.Duration {
		var end time.Duration
		for _, s := range spans {
			if s.Layer == layer && s.End > end {
				end = s.End
			}
		}
		return end
	}
	firstStart := func(spans []TaskSpan, layer int) time.Duration {
		first := time.Duration(math.MaxInt64)
		for _, s := range spans {
			if s.Layer == layer && s.Start < first {
				first = s.Start
			}
		}
		return first
	}
	if got := firstStart(wrep.Timeline(), 1); got >= lastEnd(wrep.Timeline(), 0) {
		t.Fatalf("wavefront layer 1 first start %v not before layer 0 last end %v", got, lastEnd(wrep.Timeline(), 0))
	}
	if got := firstStart(lrep.Timeline(), 1); got < lastEnd(lrep.Timeline(), 0) {
		t.Fatalf("layered execution overlapped layers: layer 1 started %v, layer 0 ended %v", got, lastEnd(lrep.Timeline(), 0))
	}

	// The idle-core-time summary must attribute more utilization to the
	// wavefront run (same busy work, smaller P×Wall envelope).
	_, _, lfrac := lrep.Utilization()
	_, _, wfrac := wrep.Utilization()
	if wfrac <= lfrac {
		t.Fatalf("wavefront utilization %.3f not above layered %.3f", wfrac, lfrac)
	}
}
