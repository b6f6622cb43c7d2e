// Command mtaskbench regenerates the tables and figures of the paper's
// evaluation, and exercises the Planner engine on the paper's solver
// graphs.
//
// Usage:
//
//	mtaskbench -list
//	mtaskbench -exp fig14
//	mtaskbench -exp all
//	mtaskbench -plan pabm -cores 256 -steps 16 -repeat 5
//	mtaskbench -scale 1000000 -repeat 2
//	mtaskbench -faults -fault-solver pab -kill 'stage[1](0)@1' -seed 7
//	mtaskbench -exec -exec-iters 5000
//	mtaskbench -exec -scale 100000 -exec-cores 16
//	mtaskbench -jobs -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	stdruntime "runtime"

	"mtask"
	"mtask/internal/bench"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/ode"
	mrt "mtask/internal/runtime"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	asJSON := flag.Bool("json", false, "emit tables as JSON instead of text")
	planSolver := flag.String("plan", "", "plan a solver graph (epol|irk|diirk|pab|pabm) through the Planner engine")
	scale := flag.Int("scale", 0, "generate a deterministic time-step-unrolled solver graph of ~N tasks (alone: plan it; with -exec: plan and execute it end to end)")
	cores := flag.Int("cores", 256, "plan: cores of the CHiC partition")
	n := flag.Int("n", 40000, "plan: ODE system size")
	steps := flag.Int("steps", 8, "plan: time steps in the task graph")
	strategy := flag.String("strategy", "consecutive", "plan: mapping strategy (consecutive|scattered|mixed:<d>)")
	parallel := flag.Int("parallel", 0, "plan: search workers (0 = GOMAXPROCS, 1 = sequential)")
	repeat := flag.Int("repeat", 3, "plan: repeated requests after the cold plan (cache hits)")
	nocache := flag.Bool("nocache", false, "plan: bypass the schedule cache")
	timeout := flag.Duration("timeout", 0, "plan: abort planning after this duration (0 = none)")
	faults := flag.Bool("faults", false, "run a solver graph under injected failures and verify the results")
	faultSolver := flag.String("fault-solver", "pab", "faults: solver graph (epol|irk|diirk|pab|pabm)")
	faultCores := flag.Int("fault-cores", 8, "faults: symbolic cores of the run")
	faultN := flag.Int("fault-n", 64, "faults: ODE system size")
	faultSteps := flag.Int("fault-steps", 4, "faults: time steps in the task graph")
	seed := flag.Int64("seed", 1, "faults: injector seed")
	perr := flag.Float64("perr", 0, "faults: per-(task,rank) probability of an injected error")
	ppanic := flag.Float64("ppanic", 0, "faults: per-(task,rank) probability of an injected panic")
	pdelay := flag.Float64("pdelay", 0, "faults: per-(task,rank) probability of an injected delay")
	kill := flag.String("kill", "", "faults: scripted core loss 'task@attempt' (e.g. 'stage[1](0)@1')")
	execMode := flag.Bool("exec", false, "time the collective engine (barrier, bcast, allgather, reduce) and a PABM time step")
	execIters := flag.Int("exec-iters", 2000, "exec: iterations per collective measurement")
	execCores := flag.Int("exec-cores", 16, "exec -scale: symbolic cores of the executed schedule")
	wavefront := flag.Bool("wavefront", false, "exec: compare layered vs wavefront execution on the imbalanced workload")
	wfLayers := flag.Int("wf-layers", 8, "exec -wavefront: layers of the imbalanced schedule")
	wfSlow := flag.Duration("wf-slow", 4*time.Millisecond, "exec -wavefront: sleep of the slow task per layer")
	wfFast := flag.Duration("wf-fast", 500*time.Microsecond, "exec -wavefront: sleep of the fast task per layer")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (Perfetto-loadable) of the run; supported with -exec -wavefront and -plan")
	serveMode := flag.Bool("serve", false, "load-test the planning service handler in process (see cmd/mtaskd)")
	serveClients := flag.Int("serve-clients", 1024, "serve: concurrent clients")
	serveReqs := flag.Int("serve-requests", 8, "serve: requests per client")
	serveGraphs := flag.Int("serve-graphs", 4, "serve: distinct graph fingerprints in the request mix")
	serveCores := flag.Int("serve-cores", 16, "serve: cores of the CHiC partition in every request")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "serve: write the JSON benchmark record here (empty = skip)")
	serveChaos := flag.Bool("chaos", false, "serve: run the chaos harness instead — drive a chaotic server (in-process, or -serve-addr) and assert the overload invariants")
	serveAddr := flag.String("serve-addr", "", "serve -chaos: drive a live mtaskd at this host:port instead of an in-process server")
	serveDeadline := flag.Duration("serve-deadline", 2*time.Second, "serve: propagated per-request deadline (X-Request-Deadline) in chaos and overload runs")
	serveOverload := flag.Bool("serve-overload", false, "serve: also record the 1x/4x/16x overload profile (before vs. after admission control) in the benchmark record")
	jobsMode := flag.Bool("jobs", false, "replay a multi-job arrival trace through the two-level machine scheduler vs a static equal-partition baseline")
	jobsLight := flag.Int("jobs-light", 10, "jobs: light (single-node) jobs in the trace, around the two heavy ones")
	jobsParts := flag.Int("jobs-parts", 4, "jobs: equal partitions of the static baseline")
	jobsBound := flag.Float64("jobs-slowdown-bound", 8, "jobs: fail if the two-level max slowdown exceeds this")
	jobsOut := flag.String("jobs-out", "BENCH_jobs.json", "jobs: write the JSON benchmark record here (empty = skip)")
	flag.Parse()

	if *jobsMode {
		if err := runJobs(*seed, *jobsLight, *jobsParts, *jobsBound, *jobsOut, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: jobs: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serveMode {
		var err error
		if *serveChaos {
			err = runServeChaos(*serveAddr, *seed, *serveClients, *serveReqs, *serveGraphs, *serveCores, *serveDeadline)
		} else {
			err = runServe(*serveClients, *serveReqs, *serveGraphs, *serveCores, *serveOut, *serveOverload, *serveDeadline)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *execMode {
		if *scale > 0 {
			if err := runExecScale(*scale, *execCores); err != nil {
				fmt.Fprintf(os.Stderr, "mtaskbench: exec -scale: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if *wavefront {
			if err := runExecWavefront(*wfLayers, *wfSlow, *wfFast, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "mtaskbench: exec -wavefront: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := runExec(*execIters); err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: exec: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *faults {
		if err := runFaults(*faultSolver, *faultCores, *faultN, *faultSteps, *seed, *perr, *ppanic, *pdelay, *kill); err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: faults: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *planSolver != "" || *scale > 0 {
		if err := runPlan(*planSolver, *scale, *cores, *n, *steps, *strategy, *parallel, *repeat, *nocache, *timeout, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: plan: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range bench.ExperimentIDs() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	failed := false
	for _, id := range ids {
		start := time.Now()
		tables, err := bench.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		for _, t := range tables {
			if *asJSON {
				data, err := t.JSON()
				if err != nil {
					fmt.Fprintf(os.Stderr, "mtaskbench: %s: %v\n", id, err)
					failed = true
					continue
				}
				fmt.Println(string(data))
			} else {
				fmt.Println(t.Format())
			}
		}
		if !*asJSON {
			fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runExec times the collective engine directly — the execution-side
// counterpart of the planning benchmarks: wall-clock per operation for the
// tree barrier and the allocation-free collectives at group sizes 2, 4 and
// 8, plus the marginal cost of one task-parallel PABM time step. The
// numbers correspond to BENCH_exec.json (regenerated there via `go test
// -bench`); on a single-core host they measure scheduling latency, not
// parallel contention.
func runExec(iters int) error {
	if iters < 1 {
		return fmt.Errorf("-exec-iters %d out of range", iters)
	}
	fmt.Printf("collective engine baseline: %d iterations/op, GOMAXPROCS=%d\n\n", iters, stdruntime.GOMAXPROCS(0))
	const vec = 64
	cases := []struct {
		name string
		body func(c *mrt.Comm, contrib, dst []float64) []float64
	}{
		{"barrier", func(c *mrt.Comm, _, dst []float64) []float64 {
			c.Barrier()
			return dst
		}},
		{"bcastInto", func(c *mrt.Comm, contrib, dst []float64) []float64 {
			c.BcastInto(0, contrib)
			return dst
		}},
		{"allgatherInto", func(c *mrt.Comm, contrib, dst []float64) []float64 {
			return c.AllgatherInto(contrib, dst)
		}},
		{"reduceInto", func(c *mrt.Comm, contrib, dst []float64) []float64 {
			return c.ReduceInto(mrt.ReduceSum, contrib, dst)
		}},
	}
	fmt.Printf("%-14s %12s %12s %12s\n", "collective", "p=2", "p=4", "p=8")
	for _, tc := range cases {
		fmt.Printf("%-14s", tc.name)
		for _, p := range []int{2, 4, 8} {
			w, err := mrt.NewWorld(p)
			if err != nil {
				return err
			}
			start := time.Now()
			w.Run(func(c *mrt.Comm) {
				contrib := make([]float64, vec)
				var dst []float64
				for i := 0; i < iters; i++ {
					dst = tc.body(c, contrib, dst)
				}
			})
			fmt.Printf(" %12s", fmtNsPerOp(time.Since(start), iters))
		}
		fmt.Println()
	}

	// One task-parallel PABM time step on 8 cores (the allgather-heavy ODE
	// loop of BenchmarkExecPABTimestepTP).
	steps := iters / 8
	if steps < 16 {
		steps = 16
	}
	w, err := mrt.NewWorld(8)
	if err != nil {
		return err
	}
	sys := ode.NewLinearDecay(256)
	start := time.Now()
	if _, err := ode.ParallelPAB(w, sys, 4, 2, ode.RunOpts{Groups: 4, Steps: steps, H: 1e-4}); err != nil {
		return err
	}
	fmt.Printf("\npabm timestep (tp, 8 cores, n=256): %s over %d steps\n", fmtNsPerOp(time.Since(start), steps), steps)
	return nil
}

// runExecWavefront runs the imbalanced workload (two chains of 2-rank
// group tasks, one slow and one fast task per layer with the slow side
// alternating) once under the layer-synchronous executor and once under
// the wavefront dispatcher, and reports wall time, core utilization and
// the speedup. The expected ratio is layers×slow vs layers×(slow+fast)/2,
// i.e. up to 2× for slow ≫ fast; the win is recovered barrier waiting
// time, so it holds on a single-CPU host. With traceOut set, both runs
// record into per-mode trace recorders (task spans, barrier-wait spans,
// per-rank collective counters) exported together as one Chrome trace.
// Exits non-zero if both runs do not complete all layers.
func runExecWavefront(layers int, slow, fast time.Duration, traceOut string) error {
	if layers < 1 {
		return fmt.Errorf("-wf-layers %d out of range", layers)
	}
	const p = 4
	sched := mrt.ImbalancedWorkload(p, layers)
	body := mrt.ImbalancedBody(slow, fast)
	fmt.Printf("imbalanced workload: %d layers x {slow %v, fast %v}, P=%d, GOMAXPROCS=%d\n\n",
		layers, slow, fast, p, stdruntime.GOMAXPROCS(0))

	var recs []*obs.Recorder
	var walls [2]time.Duration
	for i, mode := range []struct {
		name string
		opts []mrt.ExecOption
	}{
		{"layered", nil},
		{"wavefront", []mrt.ExecOption{mrt.WithWavefront()}},
	} {
		w, err := mrt.NewWorld(p)
		if err != nil {
			return err
		}
		opts := mode.opts
		if traceOut != "" {
			rec := obs.New(p, obs.WithName(mode.name))
			recs = append(recs, rec)
			opts = append(opts, mrt.WithRecorder(rec))
		}
		rep, err := mrt.ExecuteCtx(context.Background(), w, sched, body, opts...)
		if err != nil {
			return fmt.Errorf("%s execution failed: %w\n%s", mode.name, err, rep)
		}
		if rep.Layers != layers {
			return fmt.Errorf("%s execution completed %d of %d layers", mode.name, rep.Layers, layers)
		}
		busy, idle, frac := rep.Utilization()
		fmt.Printf("%-10s wall %10v  busy %10v  idle %10v  (%.1f%% utilized, %d spans)\n",
			mode.name, rep.Wall.Round(time.Microsecond), busy.Round(time.Microsecond),
			idle.Round(time.Microsecond), 100*frac, len(rep.Timeline()))
		walls[i] = rep.Wall
	}
	fmt.Printf("\nspeedup: %.2fx (layered %v -> wavefront %v)\n",
		float64(walls[0])/float64(walls[1]),
		walls[0].Round(time.Microsecond), walls[1].Round(time.Microsecond))
	if traceOut != "" {
		if err := obs.WriteChromeFile(traceOut, recs...); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		var events, drops int64
		for _, rec := range recs {
			m := rec.Metrics()
			events += m["obs.events"]
			drops += m["obs.drops"]
		}
		fmt.Printf("trace: wrote %s (%d events, %d dropped)\n", traceOut, events, drops)
	}
	return nil
}

// runExecScale makes execution scale like planning: it plans a
// deterministic scaled solver graph of ~tasks tasks on a CHiC subset and
// then actually executes the schedule end to end — once in wavefront mode
// and once in layered mode — with runnable synthetic bodies whose
// trajectory is verified bitwise against the sequential reference. For
// each run it reports wall time, per-task dispatch overhead, peak extra
// goroutines (sampled concurrently; both modes must stay at O(P)) and
// core utilization. The greppable "rank-worker dispatch ok" line is the
// CI acceptance signal.
func runExecScale(tasks, cores int) error {
	if cores < 1 || cores > mtask.CHiC().TotalCores() {
		return fmt.Errorf("-exec-cores %d out of range 1..%d", cores, mtask.CHiC().TotalCores())
	}
	build := time.Now()
	g := ode.ScaledSolverGraph(tasks)
	fmt.Printf("generated %s: %d tasks, %d edges in %v\n", g.Name, g.Len(), g.NumEdges(), time.Since(build))

	ctx := context.Background()
	machine := mtask.CHiC().SubsetCores(cores)
	planner := mtask.NewPlanner(mtask.WithCores(cores))
	start := time.Now()
	mp, err := planner.Plan(ctx, g, machine)
	if err != nil {
		return err
	}
	fmt.Printf("planned in %v: %s\n\n", time.Since(start).Round(time.Millisecond), mtask.Describe(mp))

	ref := time.Now()
	want := ode.ScaledReference(g)
	fmt.Printf("sequential reference: %d slots in %v\n\n", len(want), time.Since(ref).Round(time.Millisecond))

	type result struct {
		wall time.Duration
		peak int
	}
	results := map[string]result{}
	for _, mode := range []struct {
		name string
		opts []mrt.ExecOption
	}{
		{"workers", []mrt.ExecOption{mrt.WithWavefront(), mrt.WithoutTimeline()}},
		{"layered", []mrt.ExecOption{mrt.WithoutTimeline()}},
	} {
		w, err := mrt.NewWorld(cores)
		if err != nil {
			return err
		}
		st := ode.NewScaledExecState(g)

		// Sample the goroutine count while the run is in flight: the
		// dispatcher must hold O(P) extra goroutines regardless of graph
		// size and pass width.
		base := stdruntime.NumGoroutine()
		var peak atomic.Int64
		stop := make(chan struct{})
		monitorDone := make(chan struct{})
		go func() {
			defer close(monitorDone)
			tick := time.NewTicker(100 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					n := int64(stdruntime.NumGoroutine())
					for {
						cur := peak.Load()
						if n <= cur || peak.CompareAndSwap(cur, n) {
							break
						}
					}
				}
			}
		}()

		start := time.Now()
		rep, err := mrt.ExecuteCtx(ctx, w, mp.Schedule, st.Body, mode.opts...)
		wall := time.Since(start)
		close(stop)
		<-monitorDone
		if err != nil {
			return fmt.Errorf("%s execution failed: %w\n%s", mode.name, err, rep)
		}
		if rep.Layers != len(mp.Schedule.Layers) {
			return fmt.Errorf("%s execution completed %d of %d layers", mode.name, rep.Layers, len(mp.Schedule.Layers))
		}
		if err := ode.CompareScaledOutputs(want, st.Outputs()); err != nil {
			return fmt.Errorf("%s results diverged from the sequential reference: %w", mode.name, err)
		}
		extra := int(peak.Load()) - base
		if extra < 0 {
			extra = 0
		}
		_, _, frac := rep.Utilization()
		fmt.Printf("%-8s wall %10v  %6d ns/task  peak +%d goroutines  %.1f%% utilized  checksum %.9g (verified)\n",
			mode.name, wall.Round(time.Microsecond), wall.Nanoseconds()/int64(g.Len()), extra, 100*frac, st.Checksum())
		results[mode.name] = result{wall: wall, peak: extra}
	}

	wk, ly := results["workers"], results["layered"]
	fmt.Printf("\ndispatch overhead: workers %d ns/task vs layered %d ns/task (%.2fx)\n",
		wk.wall.Nanoseconds()/int64(g.Len()), ly.wall.Nanoseconds()/int64(g.Len()),
		float64(ly.wall)/float64(wk.wall))
	for _, mode := range []string{"workers", "layered"} {
		if peak := results[mode].peak; peak > 4*cores+16 {
			return fmt.Errorf("%s dispatch leaked goroutines: peak +%d for P=%d", mode, peak, cores)
		}
	}
	fmt.Printf("rank-worker dispatch ok: %d tasks executed and verified bitwise on P=%d in both modes (peak +%d/+%d goroutines)\n",
		g.Len(), cores, wk.peak, ly.peak)
	return nil
}

// fmtNsPerOp renders elapsed/n with ns resolution.
func fmtNsPerOp(d time.Duration, n int) string {
	return fmt.Sprintf("%d ns/op", d.Nanoseconds()/int64(n))
}

// solverGraph builds the named solver's M-task graph at the given scale
// (the fig13/fig15 workloads of the evaluation).
func solverGraph(solver string, n, steps int) (*graph.Graph, error) {
	const eval = 600
	switch solver {
	case "epol":
		return ode.BuildEPOLGraph(n, eval, 8, steps), nil
	case "irk":
		return ode.BuildIRKGraph(n, eval, 4, 2, steps), nil
	case "diirk":
		return ode.BuildDIIRKGraph(n, eval, 4, 2, steps), nil
	case "pab":
		return ode.BuildPABGraph(n, eval, 8, 0, steps), nil
	case "pabm":
		return ode.BuildPABGraph(n, eval, 8, 2, steps), nil
	}
	return nil, fmt.Errorf("unknown solver %q (want epol|irk|diirk|pab|pabm)", solver)
}

// runFaults executes a solver graph on the goroutine runtime under
// injected failures (probabilistic error/panic/delay faults and an
// optional scripted core loss), with retries and degrade-and-replan
// enabled, and verifies that the computed trajectory is bitwise identical
// to the failure-free sequential reference. It exits non-zero on any
// divergence — the acceptance check of the fault-tolerance layer.
func runFaults(solver string, cores, n, steps int, seed int64, perr, ppanic, pdelay float64, kill string) error {
	g, err := solverGraph(solver, n, steps)
	if err != nil {
		return err
	}
	if cores < 1 {
		return fmt.Errorf("-fault-cores %d out of range", cores)
	}
	machine := mtask.CHiC().SubsetCores(cores)
	planner := mtask.NewPlanner(mtask.WithCores(cores))
	ctx := context.Background()
	mp, err := planner.Plan(ctx, g, machine)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", mtask.Describe(mp))

	inj := &mtask.FaultInjector{
		Seed: seed, PError: perr, PPanic: ppanic, PDelay: pdelay,
		Delay: 200 * time.Microsecond,
	}
	if kill != "" {
		task, attempt, err := parseKill(kill)
		if err != nil {
			return err
		}
		inj.Script = append(inj.Script, mtask.FaultScript{
			Task: task, Attempt: attempt, Rank: 0, Kind: mtask.FaultCoreLoss,
		})
		fmt.Printf("scripted core loss: task %q, attempt %d\n", task, attempt)
	}
	pol := mtask.DefaultFaultPolicy()
	pol.MaxRetries = 6
	pol.BaseBackoff = 100 * time.Microsecond
	pol.DegradeAndReplan = true

	w, err := mtask.NewWorld(cores)
	if err != nil {
		return err
	}
	want := ode.Reference(g, n)
	st := ode.NewExecState(g, n)
	rep, err := mtask.ExecuteCtx(ctx, w, mp.Schedule, st.Body,
		mtask.WithFaultPolicy(pol),
		mtask.WithFaultInjector(inj),
		mtask.WithReplanner(mtask.ReplannerFor(planner, g, machine)))
	fmt.Print(rep)
	if err != nil {
		return fmt.Errorf("execution failed: %w", err)
	}
	if err := ode.CompareOutputs(want, st.Outputs()); err != nil {
		return fmt.Errorf("results diverged from the failure-free reference: %w", err)
	}
	fmt.Printf("results bitwise identical to the failure-free reference (%d tasks verified)\n", len(want))
	return nil
}

// parseKill parses a 'task@attempt' scripted core-loss spec; the task name
// may itself contain parentheses and brackets, so the attempt is split off
// at the last '@'.
func parseKill(s string) (task string, attempt int, err error) {
	i := strings.LastIndex(s, "@")
	if i <= 0 || i == len(s)-1 {
		return "", 0, fmt.Errorf("malformed -kill %q (want 'task@attempt')", s)
	}
	attempt, err = strconv.Atoi(s[i+1:])
	if err != nil || attempt < 1 {
		return "", 0, fmt.Errorf("malformed -kill attempt in %q", s)
	}
	return s[:i], attempt, nil
}

// runPlan drives the Planner engine once cold and `repeat` times warm,
// generating a scaled solver graph when scale > 0,
// reporting per-request latency, the schedule shape and the simulated
// makespan. With traceOut set, planner activity (per-layer g-search
// spans, cache hit instants, cost-model memo counters) is exported as a
// Chrome trace.
func runPlan(solver string, scale, cores, n, steps int, strategy string, parallel, repeat int, nocache bool, timeout time.Duration, traceOut string) error {
	var g *graph.Graph
	var err error
	if scale > 0 {
		build := time.Now()
		g = ode.ScaledSolverGraph(scale)
		fmt.Printf("generated %s: %d tasks, %d edges in %v\n", g.Name, g.Len(), g.NumEdges(), time.Since(build))
	} else {
		g, err = solverGraph(solver, n, steps)
		if err != nil {
			return err
		}
	}
	strat, err := mtask.StrategyByName(strategy)
	if err != nil {
		return err
	}
	if cores < 1 || cores > mtask.CHiC().TotalCores() {
		return fmt.Errorf("-cores %d out of range 1..%d", cores, mtask.CHiC().TotalCores())
	}
	machine := mtask.CHiC().SubsetCores(cores)

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	planner := mtask.NewPlanner(
		mtask.WithStrategy(strat),
		mtask.WithCores(cores),
		mtask.WithParallelism(parallel),
	)
	opts := []mtask.PlanOption{}
	if nocache {
		opts = append(opts, mtask.WithoutCache())
	}
	var rec *obs.Recorder
	if traceOut != "" {
		rec = obs.New(0, obs.WithName("planner"))
		opts = append(opts, mtask.WithPlanTrace(rec))
	}

	var mp *mtask.Mapping
	var info mtask.PlanInfo
	opts = append(opts, mtask.WithPlanInfo(&info))
	for i := 0; i <= repeat; i++ {
		start := time.Now()
		mp, err = planner.Plan(ctx, g, machine, opts...)
		if err != nil {
			return err
		}
		kind := "cold"
		switch {
		case info.CacheHit:
			kind = "cache-hit"
		case info.Coalesced:
			kind = "coalesced"
		case info.Incremental:
			kind = fmt.Sprintf("incremental, %d reused / %d searched layers", info.ReusedLayers, info.PatchedLayers)
		}
		fmt.Printf("plan %d (%s): %v\n", i, kind, time.Since(start))
	}
	hits, misses := planner.Cache().Stats()
	fmt.Printf("cache: %d hits / %d misses\n", hits, misses)

	res, err := mtask.SimulateCtx(ctx, mp)
	if err != nil {
		return err
	}
	fmt.Printf("%s\npredicted makespan: %.6gs\n", mtask.Describe(mp), res.Makespan)
	if traceOut != "" {
		if err := obs.WriteChromeFile(traceOut, rec); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace: wrote %s (%d events)\n", traceOut, rec.Metrics()["obs.events"])
	}
	return nil
}
