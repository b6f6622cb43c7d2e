package ode

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

func pabSchedule(t *testing.T, g *graph.Graph, P int) *core.Schedule {
	t.Helper()
	model := &cost.Model{Machine: arch.CHiC().SubsetCores(P)}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, P)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestExecStateMatchesReference(t *testing.T) {
	// The parallel execution of the synthetic bodies must reproduce the
	// sequential reference bitwise, for several solver graphs and core
	// counts (group sizes vary, the trajectory must not).
	const n = 64
	graphs := map[string]*graph.Graph{
		"pab":  BuildPABGraph(n, 10, 4, 0, 3),
		"irk":  BuildIRKGraph(n, 10, 4, 2, 2),
		"epol": BuildEPOLGraph(n, 10, 4, 2),
	}
	for name, g := range graphs {
		want := Reference(g, n)
		for _, P := range []int{4, 8} {
			sched := pabSchedule(t, g, P)
			w, _ := runtime.NewWorld(P)
			st := NewExecState(g, n)
			if rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body); err != nil {
				t.Fatalf("%s on %d cores: %v\n%s", name, P, err, rep)
			}
			if err := CompareOutputs(want, st.Outputs()); err != nil {
				t.Fatalf("%s on %d cores: %v", name, P, err)
			}
		}
	}
}

func TestExecStateIdenticalUnderInjectedFaults(t *testing.T) {
	// The acceptance property of the fault-tolerance layer: probabilistic
	// error/panic/delay injection with retries must leave the trajectory
	// byte-identical to the failure-free reference.
	const n = 64
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 6
	pol.BaseBackoff = 50 * time.Microsecond
	for _, tc := range []struct {
		name                 string
		g                    *graph.Graph
		seeds                []int64
		perr, ppanic, pdelay float64
	}{
		{"pab", BuildPABGraph(n, 10, 4, 0, 4), []int64{1, 2, 3}, 0.10, 0.05, 0.05},
		{"irk", BuildIRKGraph(n, 600, 4, 2, 4), []int64{3}, 0.05, 0.02, 0.05},
	} {
		want := Reference(tc.g, n)
		sched := pabSchedule(t, tc.g, 8)
		w, _ := runtime.NewWorld(8)
		for _, seed := range tc.seeds {
			inj := &fault.Injector{Seed: seed, PError: tc.perr, PPanic: tc.ppanic, PDelay: tc.pdelay, Delay: 100 * time.Microsecond}
			st := NewExecState(tc.g, n)
			rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body,
				runtime.WithPolicy(pol), runtime.WithInjector(inj))
			if err != nil {
				t.Fatalf("%s seed %d: %v\n%s", tc.name, seed, err, rep)
			}
			if rep.Retries == 0 {
				t.Fatalf("%s seed %d: no injected fault was retried\n%s", tc.name, seed, rep)
			}
			if err := CompareOutputs(want, st.Outputs()); err != nil {
				t.Fatalf("%s seed %d: results diverged: %v\n%s", tc.name, seed, err, rep)
			}
		}
	}
}

func TestExecStateIdenticalAfterCoreLossReplan(t *testing.T) {
	// Killing one core group mid-run must complete via degrade-and-replan
	// with results identical to the failure-free run — the headline
	// acceptance check of the issue.
	const n = 64
	g := BuildPABGraph(n, 10, 4, 0, 4)
	want := Reference(g, n)
	machine := arch.CHiC().SubsetCores(8)
	model := &cost.Model{Machine: machine}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := runtime.NewWorld(8)

	// Kill stage[1](0) on its first attempt: a mid-run core loss.
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "stage[1](0)", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
	}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	pol.DegradeAndReplan = true
	replan := func(ctx context.Context, survivors int) (*core.Schedule, error) {
		return (&core.Scheduler{Model: model}).Schedule(g, survivors)
	}
	st := NewExecState(g, n)
	rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body,
		runtime.WithPolicy(pol), runtime.WithInjector(inj), runtime.WithReplanner(replan))
	if err != nil {
		t.Fatalf("degrade-and-replan failed: %v\n%s", err, rep)
	}
	if rep.Replans != 1 {
		t.Fatalf("replans = %d, want 1\n%s", rep.Replans, rep)
	}
	if err := CompareOutputs(want, st.Outputs()); err != nil {
		t.Fatalf("results diverged after replan: %v\n%s", err, rep)
	}
}

func TestExecStateWavefrontMatchesReference(t *testing.T) {
	// The wavefront dispatcher must reproduce the sequential reference
	// bitwise for the real solver graphs — same oracle as the layered
	// mode, dependence-driven launch order.
	const n = 64
	graphs := map[string]*graph.Graph{
		"pab":  BuildPABGraph(n, 10, 4, 0, 3),
		"irk":  BuildIRKGraph(n, 10, 4, 2, 2),
		"epol": BuildEPOLGraph(n, 10, 4, 2),
	}
	for name, g := range graphs {
		want := Reference(g, n)
		for _, P := range []int{4, 8} {
			sched := pabSchedule(t, g, P)
			w, _ := runtime.NewWorld(P)
			st := NewExecState(g, n)
			rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body, runtime.WithWavefront())
			if err != nil {
				t.Fatalf("%s on %d cores: %v\n%s", name, P, err, rep)
			}
			if rep.Layers != len(sched.Layers) {
				t.Fatalf("%s on %d cores: %d of %d layers done", name, P, rep.Layers, len(sched.Layers))
			}
			if err := CompareOutputs(want, st.Outputs()); err != nil {
				t.Fatalf("%s on %d cores: %v", name, P, err)
			}
		}
	}
}

func TestExecStateWavefrontIdenticalUnderInjectedFaults(t *testing.T) {
	// Injected errors, panics and delays with retries must leave the
	// wavefront trajectory byte-identical to the failure-free reference,
	// as in the layered mode.
	const n = 64
	g := BuildPABGraph(n, 10, 4, 0, 4)
	want := Reference(g, n)
	sched := pabSchedule(t, g, 8)
	w, _ := runtime.NewWorld(8)

	pol := fault.DefaultPolicy()
	pol.MaxRetries = 6
	pol.BaseBackoff = 50 * time.Microsecond
	for seed := int64(1); seed <= 3; seed++ {
		inj := &fault.Injector{Seed: seed, PError: 0.10, PPanic: 0.05, PDelay: 0.05, Delay: 100 * time.Microsecond}
		st := NewExecState(g, n)
		rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body,
			runtime.WithPolicy(pol), runtime.WithInjector(inj), runtime.WithWavefront())
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, rep)
		}
		if err := CompareOutputs(want, st.Outputs()); err != nil {
			t.Fatalf("seed %d: results diverged: %v\n%s", seed, err, rep)
		}
	}
}

func TestExecStateWavefrontIdenticalAfterCoreLossReplan(t *testing.T) {
	// A mid-run core loss under the wavefront dispatcher must drain the
	// in-flight frontier to the completed-layer checkpoint, replan on the
	// survivors and still reproduce the failure-free reference bitwise.
	const n = 64
	g := BuildPABGraph(n, 10, 4, 0, 4)
	want := Reference(g, n)
	machine := arch.CHiC().SubsetCores(8)
	model := &cost.Model{Machine: machine}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := runtime.NewWorld(8)

	inj := &fault.Injector{Script: []fault.Script{
		{Task: "stage[1](0)", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
	}}
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	pol.DegradeAndReplan = true
	replan := func(ctx context.Context, survivors int) (*core.Schedule, error) {
		return (&core.Scheduler{Model: model}).Schedule(g, survivors)
	}
	st := NewExecState(g, n)
	rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body,
		runtime.WithPolicy(pol), runtime.WithInjector(inj), runtime.WithReplanner(replan),
		runtime.WithWavefront())
	if err != nil {
		t.Fatalf("wavefront degrade-and-replan failed: %v\n%s", err, rep)
	}
	if rep.Replans != 1 {
		t.Fatalf("replans = %d, want 1\n%s", rep.Replans, rep)
	}
	if err := CompareOutputs(want, st.Outputs()); err != nil {
		t.Fatalf("results diverged after replan: %v\n%s", err, rep)
	}
}

// solverGraphs are the four graphs of the benchmark's ode-layered suite
// (same builder arguments, steps free).
func solverGraphs(n, steps int) []*graph.Graph {
	return []*graph.Graph{
		BuildEPOLGraph(n, 600, 8, steps),
		BuildIRKGraph(n, 600, 4, 2, steps),
		BuildDIIRKGraph(n, 600, 4, 2, steps),
		BuildPABGraph(n, 600, 8, 2, steps),
	}
}

// execModes are the two execution modes of the dispatcher.
var execModes = []struct {
	name string
	opts []runtime.ExecOption
}{{"layered", nil}, {"wavefront", []runtime.ExecOption{runtime.WithWavefront()}}}

// outputsDigest is the SHA-256 of the output vectors in ascending task id,
// every element as its math.Float64bits, little-endian.
func outputsDigest(out map[graph.TaskID][]float64) string {
	ids := make([]graph.TaskID, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var b [8]byte
	for _, id := range ids {
		for _, v := range out[id] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestReferenceGolden(t *testing.T) {
	// Reference is the oracle of every ExecState property test and of the
	// benchmark's ode-layered workload. These digests were recorded on the
	// commit before ExecState's data path was rewritten (510a7ba), so a
	// rewrite of Reference itself cannot move the trajectory unnoticed.
	golden := map[int][4]string{
		64: {
			"9910308adca133fd3f44949208b898d9cedf679b8e9f9c21d81a5f19711a76dc",
			"63bddb71203327b5e7114d197bbc6ebceaf28fbfe73a114618e2885e8b3ba55f",
			"63bddb71203327b5e7114d197bbc6ebceaf28fbfe73a114618e2885e8b3ba55f", // same dependence structure and ids as IRK
			"5b2efb8e690fa91d63e33cdc9a7d6fd161cda29ca2d9d35812e4ff6049a4c7a9",
		},
		257: {
			"698cefb5782f370ee0a4244c45c9cfa0d2f4aa5530a3f7aad4a2ae93911da357",
			"8003d2fab79119028c0e3feb4827e26b9474ec5f50830543af70101a73d974e3",
			"8003d2fab79119028c0e3feb4827e26b9474ec5f50830543af70101a73d974e3",
			"55d4639c6991e3fb7f4391d09c90330798b74ac391c5305cd8e3001314fa02aa",
		},
	}
	for n, want := range golden {
		for i, g := range solverGraphs(n, 2) {
			if got := outputsDigest(Reference(g, n)); got != want[i] {
				t.Errorf("%s n=%d: digest %s, want %s", g.Name, n, got, want[i])
			}
		}
	}
}

// naiveReference is a straight-line copy of the algorithm ExecState and
// Reference implemented before the block-local rewrite: a full-length
// input vector per task, summed predecessor by predecessor in ascending
// id, the initial vector for tasks without a stored predecessor.
func naiveReference(t *testing.T, g *graph.Graph, n int) map[graph.TaskID][]float64 {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[graph.TaskID][]float64)
	for _, id := range order {
		if g.Task(id).Kind != graph.KindBasic {
			continue
		}
		preds := append([]graph.TaskID(nil), g.Pred(id)...)
		sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
		in := make([]float64, n)
		stored := false
		for _, p := range preds {
			if v, ok := out[p]; ok {
				stored = true
				for i := range in {
					in[i] += v[i]
				}
			}
		}
		if !stored {
			for i := range in {
				in[i] = 1 + 0.001*float64(i%13)
			}
		}
		full := make([]float64, n)
		for i := range full {
			full[i] = math.Tanh(0.3*in[i]+0.05*float64(id+1)) + 0.001*float64(i%7)
		}
		out[id] = full
	}
	return out
}

func TestExecStateMatchesNaiveReference(t *testing.T) {
	// n is prime, so no group size above 1 divides it and the block
	// boundaries fall at uneven offsets.
	const n = 257
	for _, g := range solverGraphs(n, 2) {
		want := naiveReference(t, g, n)
		if err := CompareOutputs(want, Reference(g, n)); err != nil {
			t.Fatalf("%s: Reference: %v", g.Name, err)
		}
		for _, P := range []int{3, 4, 8} {
			sched := pabSchedule(t, g, P)
			w, _ := runtime.NewWorld(P)
			for _, mode := range execModes {
				st := NewExecState(g, n)
				rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body, mode.opts...)
				if err != nil {
					t.Fatalf("%s %s on %d cores: %v\n%s", g.Name, mode.name, P, err, rep)
				}
				if got := st.Outputs(); len(got) != len(want) {
					t.Fatalf("%s %s on %d cores: %d outputs, want %d", g.Name, mode.name, P, len(got), len(want))
				} else if err := CompareOutputs(want, got); err != nil {
					t.Fatalf("%s %s on %d cores: %v", g.Name, mode.name, P, err)
				}
			}
		}
	}
}

func TestExecStateBytesPerTask(t *testing.T) {
	// The allocation bill of a task is its published output vector and
	// little else: bytes per basic task stay within 1.25 · 8n (the slack
	// covers the free-list vectors of ranks other than 0 and the
	// group communicators' staging buffers) and mallocs per basic task
	// (body and dispatch together) stay below what they were before the
	// block-local rewrite. Measured on this gate (P=4, n=4096, 4 steps,
	// go1.24, per basic task):
	//
	//	before  IRK 4.27 · 8n, 17.1–17.9 mallocs   PABM 3.03 · 8n, 11.1–11.6 mallocs
	//	after   IRK 1.13 · 8n,  8.4–8.5  mallocs   PABM 1.02 · 8n,  4.9–5.3  mallocs
	//
	// The old path allocated an input vector, a block and a gather result
	// on every rank, and sorted a copy of the predecessor list.
	if raceEnabled {
		t.Skip("the race detector's allocations and pool drops inflate the counts")
	}
	const n, P = 4096, 4
	const maxBytes = 1.25 * 8 * n
	m := arch.CHiC().SubsetCores(P)
	for _, c := range []struct {
		g          *graph.Graph
		maxMallocs float64 // the lowest reading before the rewrite
	}{{BuildIRKGraph(n, 600, 4, 2, 4), 17.1}, {BuildPABGraph(n, 600, 8, 2, 4), 11.1}} {
		g := c.g
		mp, err := plan.New().Plan(context.Background(), g, m)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := runtime.NewWorld(P)
		st := NewExecState(g, n)
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		if _, err := runtime.ExecuteCtx(context.Background(), w, mp.Schedule, st.Body); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		want := Reference(g, n) // one vector per basic task
		if err := CompareOutputs(want, st.Outputs()); err != nil {
			t.Fatal(err)
		}
		tasks := float64(len(want))
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / tasks
		mallocs := float64(after.Mallocs-before.Mallocs) / tasks
		t.Logf("%s: %.0f bytes (%.2f · 8n) and %.1f mallocs per basic task", g.Name, bytes, bytes/(8*n), mallocs)
		if bytes > maxBytes {
			t.Errorf("%s: %.0f bytes per basic task, want ≤ %.0f (1.25 · 8n)", g.Name, bytes, float64(maxBytes))
		}
		if mallocs > c.maxMallocs {
			t.Errorf("%s: %.1f mallocs per basic task, want ≤ %.1f", g.Name, mallocs, c.maxMallocs)
		}
	}
}

func TestExecStateAbandonedAttemptRaceFree(t *testing.T) {
	// A short TaskTimeout runs every rank's share of an attempt on its own
	// goroutine; timed-out attempts are aborted and, past the grace period,
	// abandoned while the retry runs. Two first attempts time out on a scripted delay of rank 0
	// (its peers are aborted in the gather, holding free-list vectors), and
	// rank 0 of a third hangs inside the body past timeout and grace, so its
	// goroutine computes into its destination while the retry publishes and
	// successors read. Each attempt's destination is its own make, so the
	// straggler cannot touch published data; the race detector checks that.
	const n, P = 257, 8
	const timeout, grace = 30 * time.Millisecond, 5 * time.Millisecond
	g := BuildPABGraph(n, 10, 4, 0, 4)
	want := Reference(g, n)
	sched := pabSchedule(t, g, P)

	pol := fault.DefaultPolicy()
	pol.MaxRetries = 6
	pol.BaseBackoff = 50 * time.Microsecond
	pol.TaskTimeout = timeout
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "stage[1](0)", Attempt: 1, Rank: 0, Kind: fault.Delay, Delay: 10 * timeout},
		{Task: "stage[2](3)", Attempt: 1, Rank: 0, Kind: fault.Delay, Delay: 10 * timeout},
	}}
	for _, mode := range execModes {
		st := NewExecState(g, n)
		var hung atomic.Bool
		var stragglers sync.WaitGroup
		body := func(task *graph.Task) runtime.TaskFunc {
			fn := st.Body(task)
			if task.Name != "stage[1](2)" {
				return fn
			}
			return func(tc *runtime.TaskCtx) error {
				if tc.Group.Rank() == 0 && hung.CompareAndSwap(false, true) {
					stragglers.Add(1)
					defer stragglers.Done()
					time.Sleep(timeout + 4*grace) // ignores tc.Ctx: abandoned, then runs the body
				}
				return fn(tc)
			}
		}
		w, _ := runtime.NewWorld(P)
		opts := append([]runtime.ExecOption{runtime.WithPolicy(pol), runtime.WithInjector(inj),
			runtime.WithAbandonGrace(grace)}, mode.opts...)
		rep, err := runtime.ExecuteCtx(context.Background(), w, sched, body, opts...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, rep)
		}
		if rep.Retries < 3 {
			t.Fatalf("%s: %d retries, want one for each of the three abandoned attempts\n%s", mode.name, rep.Retries, rep)
		}
		if err := CompareOutputs(want, st.Outputs()); err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, rep)
		}
		stragglers.Wait()
		if err := CompareOutputs(want, st.Outputs()); err != nil {
			t.Fatalf("%s, after the abandoned attempt ended: %v", mode.name, err)
		}
	}
}
