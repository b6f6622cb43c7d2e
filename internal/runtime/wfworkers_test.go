package runtime

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// gridSchedule hand-builds a schedule of `layers` layers, each with
// p/gsize independent groups of gsize ranks running one task — a dense
// regular DAG (each chain's task depends on its predecessor) big enough
// to measure per-task dispatch cost without paying a scheduler pass. It
// satisfies every invariant of core.Schedule.Validate and
// core.PrecedenceOf.
func gridSchedule(p, layers, gsize int) *core.Schedule {
	if p%gsize != 0 {
		panic("gridSchedule: p must be a multiple of gsize")
	}
	ng := p / gsize
	g := graph.New("grid")
	sched := &core.Schedule{P: p}
	prev := make([]graph.TaskID, ng)
	for li := 0; li < layers; li++ {
		ls := &core.LayerSchedule{Groups: make([][]graph.TaskID, ng), Sizes: make([]int, ng)}
		for c := 0; c < ng; c++ {
			id := g.AddBasic("g"+strconv.Itoa(c)+"."+strconv.Itoa(li), 1)
			if li > 0 {
				g.MustEdge(prev[c], id, 8)
			}
			prev[c] = id
			ls.Layer = append(ls.Layer, id)
			ls.Groups[c] = []graph.TaskID{id}
			ls.Sizes[c] = gsize
		}
		sched.Layers = append(sched.Layers, ls)
	}
	sched.Source = g
	sched.Graph = g
	return sched
}

// execModes are the two execution modes of the dispatcher.
var execModes = []struct {
	name    string
	layered bool
	opts    []ExecOption
}{
	{"layered", true, nil},
	{"wavefront", false, []ExecOption{WithWavefront()}},
}

func TestPropertyWorkersMatchSequential(t *testing.T) {
	// The differential property of the dispatcher: on the same schedule
	// both modes must produce bitwise identical results, the same
	// completed-layer count and the same number of successful spans as
	// the sequential reference interpreter, for random DAGs and varying
	// core counts.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		g := randomExecDAG(rng)
		P := []int{4, 6, 8}[rng.Intn(3)]
		sched := randomExecSchedule(t, g, P)
		ref, rrep := referenceRecorded(t, sched)
		for _, mode := range execModes {
			got, wrep := runRecorded(t, sched, P, mode.opts...)
			compareBitwise(t, ref, got)
			checkExecution(t, sched, wrep, mode.layered)
			if wrep.Layers != rrep.Layers || wrep.Layers != len(sched.Layers) {
				t.Fatalf("trial %d: layers done = %d (%s) / %d (reference), want %d",
					trial, wrep.Layers, mode.name, rrep.Layers, len(sched.Layers))
			}
			if len(wrep.Spans) != len(rrep.Spans) {
				t.Fatalf("trial %d: %d %s spans, %d reference spans", trial, len(wrep.Spans), mode.name, len(rrep.Spans))
			}
		}
	}
}

func TestPropertyWorkersFaultsMatchSequential(t *testing.T) {
	// Equivalence under injected errors, panics and delays with retries:
	// the injector is deterministic per (task, attempt, rank), so the
	// dispatcher and the reference see the same fault sequence per task
	// and must converge to the same bits with the same retry and panic
	// totals. A policy deadline runs every share on its own goroutine
	// (abandonable), so the property must hold with one as well: a
	// per-attempt TaskTimeout in both modes, a LayerTimeout in layered
	// mode, both generous enough never to fire.
	rng := rand.New(rand.NewSource(17))
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 20
	pol.BaseBackoff = 50 * time.Microsecond
	pol.MaxBackoff = time.Millisecond // backoff sleeps would dominate the run time
	pol.TaskTimeout = 0
	taskTimeout, layerTimeout := pol, pol
	taskTimeout.TaskTimeout = 30 * time.Second
	layerTimeout.LayerTimeout = 30 * time.Second
	policies := []struct {
		name      string
		pol       fault.Policy
		wavefront bool // a wavefront pass ignores LayerTimeout
	}{{"no deadline", pol, true}, {"task timeout", taskTimeout, true}, {"layer timeout", layerTimeout, false}}
	for trial := 0; trial < 6; trial++ {
		g := randomExecDAG(rng)
		sched := randomExecSchedule(t, g, 8)
		inj := &fault.Injector{Seed: int64(trial + 1), PError: 0.08, PPanic: 0.04, PDelay: 0.05, Delay: 100 * time.Microsecond}
		ref, rrep := referenceRecorded(t, sched, WithPolicy(pol), WithInjector(inj))
		for _, pc := range policies {
			for _, mode := range execModes {
				if !mode.layered && !pc.wavefront {
					continue
				}
				got, wrep := runRecorded(t, sched, 8, append([]ExecOption{WithPolicy(pc.pol), WithInjector(inj)}, mode.opts...)...)
				compareBitwise(t, ref, got)
				checkExecution(t, sched, wrep, mode.layered)
				if wrep.Layers != rrep.Layers || wrep.Layers != len(sched.Layers) {
					t.Fatalf("trial %d, %s, %s: layers done = %d / %d (reference), want %d",
						trial, mode.name, pc.name, wrep.Layers, rrep.Layers, len(sched.Layers))
				}
				if wrep.Retries != rrep.Retries || wrep.Panics != rrep.Panics {
					t.Fatalf("trial %d, %s, %s: retries/panics = %d/%d, %d/%d (reference)",
						trial, mode.name, pc.name, wrep.Retries, wrep.Panics, rrep.Retries, rrep.Panics)
				}
			}
		}
	}
}

// coresOf returns the number of symbolic cores the schedule gives the
// named source task.
func coresOf(t *testing.T, sched *core.Schedule, name string) int {
	t.Helper()
	for _, ls := range sched.Layers {
		for gi, ids := range ls.Groups {
			for _, id := range ids {
				for _, src := range sched.SourceTasks(id) {
					if sched.Source.Task(src).Name == name {
						return ls.Sizes[gi]
					}
				}
			}
		}
	}
	t.Fatalf("task %q is not scheduled", name)
	return 0
}

func TestPropertyWorkersCoreLossCheckpointMatchesSequential(t *testing.T) {
	// A scripted mid-run core loss is fully deterministic, so the
	// degrade-and-replan bookkeeping is too: one replan, the failed
	// groups' cores lost, the completed layers before the failing one as
	// the checkpoint, and outputs bitwise identical to the reference run
	// of the old schedule up to the checkpoint and the replanned one from
	// there. A layered pass lets every group of the layer run to its own
	// end, so two groups exhausting their retries in one layer cost one
	// replan and both groups' cores on every repetition; a wavefront pass
	// stops launching at the first failure, so what a second failing group
	// costs there depends on timing and is not pinned.
	dg, diamond := diamondSchedule(t, 8)
	cases := []struct {
		name      string
		sched     *core.Schedule
		replan    Replanner
		script    []fault.Script
		lost      int
		width     int // tasks in the widest layer
		reps      int
		wavefront bool
	}{
		{"one group", diamond, diamondReplanner(t, dg),
			[]fault.Script{{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss}}, coresOf(t, diamond, "b"), 2, 1, true},
		{"two groups of one layer", gridSchedule(8, 3, 2),
			func(_ context.Context, survivors int) (*core.Schedule, error) {
				return gridSchedule(survivors, 3, survivors/4), nil
			},
			[]fault.Script{
				{Task: "g0.1", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
				{Task: "g2.1", Attempt: 1, Rank: 1, Kind: fault.CoreLoss},
			}, 4, 4, 50, false},
	}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	pol.DegradeAndReplan = true
	for _, tc := range cases {
		const checkpoint = 1 // both scripts fail layer 1
		layers := len(tc.sched.Layers)
		replanned, err := tc.replan(context.Background(), tc.sched.P-tc.lost)
		if err != nil {
			t.Fatal(err)
		}
		var refOut sync.Map
		runSequential(t, tc.sched, 0, checkpoint, recordingBody(&refOut))
		runSequential(t, replanned, checkpoint, layers, recordingBody(&refOut))
		ref := recordings(&refOut)

		for _, mode := range execModes {
			if !mode.layered && !tc.wavefront {
				continue
			}
			for i := 0; i < tc.reps; i++ {
				var replanAt time.Time
				replan := func(ctx context.Context, survivors int) (*core.Schedule, error) {
					replanAt = time.Now()
					return tc.replan(ctx, survivors)
				}
				w, _ := NewWorld(tc.sched.P)
				rec := obs.New(tc.sched.P, obs.WithCapacity(256))
				var out sync.Map
				r, err := ExecuteCtx(context.Background(), w, tc.sched, recordingBody(&out), append([]ExecOption{
					WithPolicy(pol), WithInjector(&fault.Injector{Script: tc.script}), WithReplanner(replan),
					WithRecorder(rec)}, mode.opts...)...)
				if err != nil {
					t.Fatalf("%s, %s: degrade-and-replan failed: %v\n%s", tc.name, mode.name, err, r)
				}
				compareBitwise(t, ref, recordings(&out))
				if r.Replans != 1 || r.LostCores != tc.lost || r.Layers != layers {
					t.Fatalf("%s, %s, repetition %d: %d replans, %d cores lost, %d layers done; want 1, %d, %d\n%s",
						tc.name, mode.name, i, r.Replans, r.LostCores, r.Layers, tc.lost, layers, r)
				}
				// The launch backlog is a high-water mark over the run's
				// dispatchers, not a sum: never above the widest layer.
				if pk := rec.Metrics()["exec.wf.peak_ready"]; pk < 1 || pk > int64(tc.width) {
					t.Fatalf("%s, %s: exec.wf.peak_ready = %d, want in [1, %d]", tc.name, mode.name, pk, tc.width)
				}
				// Attempts that succeeded before the replan ran on the old
				// schedule; of those only the checkpointed layers count.
				var before, after []TaskSpan
				for _, s := range r.Spans {
					switch {
					case s.End > replanAt.Sub(r.epoch):
						after = append(after, s)
					case s.Layer < checkpoint:
						before = append(before, s)
					}
				}
				checkSpans(t, tc.sched, 0, checkpoint, before, mode.layered)
				checkSpans(t, replanned, checkpoint, layers, after, mode.layered)
			}
		}
	}
}

func TestWorkersTaskTimeoutUnblocksBarrier(t *testing.T) {
	// The per-attempt deadline, end to end: one rank hangs past it while
	// its peers wait at a group barrier. The dispatcher must abort the
	// attempt's communicator (releasing the peers) and fail with
	// DeadlineExceeded — and the rank workers themselves must not
	// deadlock.
	sched := gridSchedule(4, 2, 4)
	w, _ := NewWorld(4)
	pol := fault.Policy{TaskTimeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		hang := task.Name == "g0.1"
		return func(tc *TaskCtx) error {
			if hang && tc.Group.Rank() == 0 {
				select { // hang, but respect the attempt context
				case <-tc.Ctx.Done():
					return tc.Ctx.Err()
				case <-time.After(10 * time.Second):
				}
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol), WithWavefront())
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

func TestWorkersCancellationObservedBetweenAttempts(t *testing.T) {
	// The cancellation semantics of cooperative attempts, at both pass
	// widths: caller cancellation is observed between attempts. A body
	// that honors its TaskCtx.Ctx unblocks immediately; the dispatcher
	// must then stop launching and return the cancellation, with all
	// workers joined.
	sched := gridSchedule(2, 50, 1)
	for _, mode := range execModes {
		w, _ := NewWorld(2)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		body := func(task *graph.Task) TaskFunc {
			return func(tc *TaskCtx) error {
				if ran.Add(1) == 4 {
					cancel()
				}
				select {
				case <-tc.Ctx.Done():
					return tc.Ctx.Err()
				default:
					return nil
				}
			}
		}
		rep, err := ExecuteCtx(ctx, w, sched, body, mode.opts...)
		if err == nil {
			t.Fatalf("%s: cancellation not reported\n%s", mode.name, rep)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error does not wrap context.Canceled: %v", mode.name, err)
		}
		if n := ran.Load(); n >= 100 {
			t.Fatalf("%s: all %d tasks ran despite cancellation", mode.name, n)
		}
	}
}

func TestWorkersStalePublicationRace(t *testing.T) {
	// Regression test for the stale attempt-publication race: a leader's
	// seq counter is cumulative across every task it leads, so after rank
	// 0 leads a group excluding rank 2 (rank 0's seq advances while rank
	// 2's lastSeq[0] stays behind), rank 2 joins rank 0's next group with
	// seq != lastSeq already true. If the task id were published before
	// the attempt's fields and seq bump, rank 2 could observe the id,
	// pass the seq check against the stale value and run the previous
	// task's publication — the previous attempt's communicator, the wrong
	// body, and a spurious pending decrement. Alternating {[0,2),[2,3)}
	// and {[0,3)} layers re-arm that window every round; the barrier in
	// each body makes a stale run collide instead of passing silently,
	// and the run counter catches any double-executed rank.
	const rounds = 200
	g := graph.New("stale")
	sched := &core.Schedule{P: 3}
	var prev []graph.TaskID
	for li := 0; li < 2*rounds; li++ {
		var ls *core.LayerSchedule
		var ids []graph.TaskID
		if li%2 == 0 {
			a := g.AddBasic("a"+strconv.Itoa(li), 1)
			c := g.AddBasic("c"+strconv.Itoa(li), 1)
			ls = &core.LayerSchedule{
				Layer:  []graph.TaskID{a, c},
				Groups: [][]graph.TaskID{{a}, {c}},
				Sizes:  []int{2, 1},
			}
			ids = []graph.TaskID{a, c}
		} else {
			wt := g.AddBasic("w"+strconv.Itoa(li), 1)
			ls = &core.LayerSchedule{
				Layer:  []graph.TaskID{wt},
				Groups: [][]graph.TaskID{{wt}},
				Sizes:  []int{3},
			}
			ids = []graph.TaskID{wt}
		}
		for _, p := range prev {
			for _, id := range ids {
				g.MustEdge(p, id, 1)
			}
		}
		prev = ids
		sched.Layers = append(sched.Layers, ls)
	}
	sched.Source = g
	sched.Graph = g

	var runs atomic.Int64
	body := func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			runs.Add(1)
			tc.Group.Barrier()
			return nil
		}
	}
	w, _ := NewWorld(3)
	rep, err := ExecuteCtx(context.Background(), w, sched, body, WithWavefront(), WithoutTimeline())
	if err != nil {
		t.Fatalf("execution failed: %v\n%s", err, rep)
	}
	// Per round: the size-2 group runs 2 rank bodies, the singleton 1,
	// the size-3 group 3 — every rank of every group exactly once.
	if want := int64(rounds * 6); runs.Load() != want {
		t.Fatalf("body ran %d times, want %d (a stale publication double-runs a rank)", runs.Load(), want)
	}
}

func TestWavefrontDispatchAllocFree(t *testing.T) {
	// The headline perf gate: steady-state dispatch must not allocate per
	// task, in either mode. The fixed setup cost of a pass (precedence
	// metadata slabs, worker slabs, P wake channels) is constant in the
	// task count, so amortized over a few thousand tasks the per-task
	// share must be a rounding error — a goroutine-per-task dispatcher
	// costs several allocations per task and fails this hard, and so does
	// a layered run that starts its workers again for every layer.
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race (instrumentation + sync.Pool drops)")
	}
	const tasks = 4 * 500 // p/gsize groups × layers
	sched := gridSchedule(8, 500, 2)
	w, _ := NewWorld(8)
	shared := func(tc *TaskCtx) error { return nil }
	body := func(task *graph.Task) TaskFunc { return shared }

	for _, mode := range execModes {
		opts := append([]ExecOption{WithoutTimeline()}, mode.opts...)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ExecuteCtx(context.Background(), w, sched, body, opts...); err != nil {
				t.Fatal(err)
			}
		})
		perTask := allocs / tasks
		t.Logf("%s dispatch: %.0f allocs per run, %.4f per task (%d tasks)", mode.name, allocs, perTask, tasks)
		if perTask >= 0.5 {
			t.Errorf("%s dispatch allocates %.4f per task (%.0f per %d-task run), want amortized-free",
				mode.name, perTask, allocs, tasks)
		}
	}
}

// liveGoroutines counts the live goroutines in a stop-the-world dump of
// every stack: exact, unlike runtime.NumGoroutine (see
// TestWavefrontPeakGoroutinesConstant), but far too slow to sample on
// every task.
func liveGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return 1 + bytes.Count(buf[:n], []byte("\n\ngoroutine "))
		}
		buf = make([]byte, 2*len(buf))
	}
}

func TestWavefrontPeakGoroutinesConstant(t *testing.T) {
	// The scaling gate: a pass runs P workers, whatever its width, so the
	// peak goroutine count must be O(P) — not O(in-flight tasks × group
	// size) like a dispatcher that spawns per task or per attempt. Under a
	// policy deadline (DefaultPolicy's TaskTimeout) every worker waits on
	// at most one goroutine running its share: 2P.
	//
	// runtime.NumGoroutine is cheap but can read up to 32 too high: it is
	// allglen minus the free-list counts, and the runtime moves dead
	// goroutines from a P's free list to the global one in batches of 32,
	// decrementing one count before incrementing the other. The default
	// policy's deadline runs every share on a goroutine of its own that
	// exits when the share returns, so it triggers those moves all the
	// time, and a sample can land while dead workers of an earlier run
	// are being moved. A sample above the bound is therefore confirmed
	// with an exact stop-the-world count, and the exact number is
	// recorded; a real per-task or per-attempt leak still fails.
	const P = 8
	sched := gridSchedule(P, 200, 1)
	for _, pc := range []struct {
		name  string
		opts  []ExecOption
		extra int // goroutines allowed above the baseline
	}{{"no deadline", nil, P + 4}, {"default policy", []ExecOption{WithPolicy(fault.DefaultPolicy())}, 2*P + 4}} {
		for _, mode := range execModes {
			w, _ := NewWorld(P)
			var peak atomic.Int64
			baseline := liveGoroutines()
			bound := int64(baseline + pc.extra)
			body := func(task *graph.Task) TaskFunc {
				return func(tc *TaskCtx) error {
					n := int64(runtime.NumGoroutine())
					if n > bound {
						n = int64(liveGoroutines())
					}
					for {
						pk := peak.Load()
						if n <= pk || peak.CompareAndSwap(pk, n) {
							return nil
						}
					}
				}
			}
			opts := append(append([]ExecOption{WithoutTimeline()}, pc.opts...), mode.opts...)
			if _, err := ExecuteCtx(context.Background(), w, sched, body, opts...); err != nil {
				t.Fatal(err)
			}
			extra := int(peak.Load()) - baseline
			t.Logf("%s, %s: peak goroutines: baseline %d, peak %d (+%d) for P=%d", mode.name, pc.name, baseline, peak.Load(), extra, P)
			if extra > pc.extra {
				t.Fatalf("%s, %s: peak goroutines %d above baseline %d for P=%d, want at most %d: dispatch is not O(P)",
					mode.name, pc.name, extra, baseline, P, pc.extra)
			}
		}
	}
}

// retentions are the two Report retentions a retention check runs every
// input in: the full report and the lean one (WithoutTimeline).
var retentions = []struct {
	name string
	opts []ExecOption
}{{"full", nil}, {"lean", []ExecOption{WithoutTimeline()}}}

// checkRetentions checks that the full and the lean report of one input
// agree: the same history for every faulted task, and the same Retries,
// Panics and Layers. The full report holds one span per successful
// attempt (successes); the lean one holds no spans, and Tasks entries
// only for the faulted tasks.
func checkRetentions(t *testing.T, what string, full, lean *Report, faulted []string, successes int) {
	t.Helper()
	for _, name := range faulted {
		if f, l := full.Task(name), lean.Task(name); f != l || f.Failures == 0 {
			t.Fatalf("%s: %s history full %+v, lean %+v; want equal, with a failure", what, name, f, l)
		}
	}
	if full.Retries != lean.Retries || full.Panics != lean.Panics || full.Layers != lean.Layers {
		t.Fatalf("%s: retries/panics/layers full %d/%d/%d, lean %d/%d/%d", what,
			full.Retries, full.Panics, full.Layers, lean.Retries, lean.Panics, lean.Layers)
	}
	if len(full.Spans) != successes {
		t.Fatalf("%s: full report holds %d spans, want one per successful attempt (%d)\n%s", what, len(full.Spans), successes, full)
	}
	if len(lean.Spans) != 0 || len(lean.Timeline()) != 0 || len(lean.Tasks) != len(faulted) {
		t.Fatalf("%s: lean report holds %d spans and %d task entries, want none and the %d faulted tasks\n%s",
			what, len(lean.Spans), len(lean.Tasks), len(faulted), lean)
	}
}

func TestWithoutTimelineLeanReport(t *testing.T) {
	// One scripted retry, run by the dispatcher in both modes and
	// by the sequential reference, each in both retentions: the reports
	// agree on the retried task's history (the failed first attempt
	// counted) and on the totals, the lean one drops the spans and every
	// clean task's entry, and both keep the busy core-time.
	sched := ImbalancedWorkload(2, 3)
	body := ImbalancedBody(2*time.Millisecond, time.Millisecond)
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 3
	pol.BaseBackoff = 50 * time.Microsecond
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "slow[1]", Attempt: 1, Rank: 0, Kind: fault.Error},
	}}
	faults := []ExecOption{WithPolicy(pol), WithInjector(inj)}
	run := func(opts ...ExecOption) *Report {
		w, _ := NewWorld(2)
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
			return runSequential(t, sched, 0, 3, body, append(faults, opts...)...)
		}},
	} {
		var reps [2]*Report
		for i, ret := range retentions {
			rep := mode.run(ret.opts...)
			busy, _, frac := rep.Utilization()
			if busy <= 0 || frac <= 0 || frac > 1 {
				t.Fatalf("%s, %s: busy core-time %v, frac %.3f\n%s", mode.name, ret.name, busy, frac, rep)
			}
			if rep.Layers != 3 {
				t.Fatalf("%s, %s: layers done = %d, want 3\n%s", mode.name, ret.name, rep.Layers, rep)
			}
			if tr := rep.Task("slow[1]"); tr != (TaskReport{Name: "slow[1]", Attempts: 2, Retries: 1, Failures: 1}) {
				t.Fatalf("%s, %s: slow[1] history = %+v, want attempts 2, retries 1, failures 1", mode.name, ret.name, tr)
			}
			reps[i] = rep
		}
		checkRetentions(t, mode.name, reps[0], reps[1], []string{"slow[1]"}, 6)
	}
}

func TestLeanReportConcurrentFaults(t *testing.T) {
	// Both retentions under concurrency: P = 8 workers run 2 000 tasks
	// while ~5% of them fail (scripted errors and panics at attempt 1,
	// some again at attempt 2, on either group rank), so Tasks entries
	// are created under the lock while clean tasks number their attempts
	// and log their core-time without it. In both modes the full and
	// the lean report must agree with each other (checkRetentions) and
	// with the sequential reference's on every faulted task's history,
	// every output must equal the reference's bitwise, and the busy
	// core-time must stay within P × Wall. Meant to run under -race.
	const P, layers, gsize = 8, 500, 2
	sched := gridSchedule(P, layers, gsize)
	rng := rand.New(rand.NewSource(32))
	inj := &fault.Injector{}
	var faulted []string
	kinds := []fault.Kind{fault.Error, fault.Panic}
	for li := 0; li < layers; li++ {
		for c := 0; c < P/gsize; c++ {
			if rng.Float64() >= 0.05 {
				continue
			}
			name := "g" + strconv.Itoa(c) + "." + strconv.Itoa(li)
			faulted = append(faulted, name)
			for attempt, n := 1, 1+rng.Intn(2); attempt <= n; attempt++ {
				inj.Script = append(inj.Script, fault.Script{Task: name, Attempt: attempt, Rank: rng.Intn(gsize), Kind: kinds[rng.Intn(2)]})
			}
		}
	}
	if len(faulted) < 50 {
		t.Fatalf("only %d faulted tasks: the script does not exercise concurrent history creation", len(faulted))
	}
	faults := []ExecOption{WithPolicy(fault.Policy{MaxRetries: 3}), WithInjector(inj)}
	ref, rfull := referenceRecorded(t, sched, faults...)
	_, rlean := referenceRecorded(t, sched, append(faults, WithoutTimeline())...)
	checkRetentions(t, "reference", rfull, rlean, faulted, layers*P/gsize)
	for _, mode := range execModes {
		var reps [2]*Report
		for i, ret := range retentions {
			got, rep := runRecorded(t, sched, P, append(append(faults, mode.opts...), ret.opts...)...)
			compareBitwise(t, ref, got)
			if busy, _, _ := rep.Utilization(); busy <= 0 || busy > time.Duration(P)*rep.Wall {
				t.Fatalf("%s, %s: busy core-time %v outside (0, P×Wall = %v]", mode.name, ret.name, busy, time.Duration(P)*rep.Wall)
			}
			reps[i] = rep
		}
		checkRetentions(t, mode.name, reps[0], reps[1], faulted, layers*P/gsize)
		for _, name := range faulted {
			if tr := reps[0].Task(name); tr != rfull.Task(name) || tr.Attempts < 2 {
				t.Fatalf("%s: %s history %+v, reference %+v", mode.name, name, tr, rfull.Task(name))
			}
		}
		if reps[0].Retries != rfull.Retries || reps[0].Panics != rfull.Panics {
			t.Fatalf("%s: retries/panics %d/%d, reference %d/%d", mode.name, reps[0].Retries, reps[0].Panics, rfull.Retries, rfull.Panics)
		}
	}
}
