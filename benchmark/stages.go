package main

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync/atomic"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// ranks is the symbolic core count of every executed schedule: one CHiC
// node, the smallest machine on which g-search, group rendezvous and
// mapping are all non-trivial, and at most 2x oversubscribed on the 2-core
// reference box.
const ranks = 4

// opTrace accumulates, over the plans and runs of one traced operation,
// what the layers' public counters report; observe turns the totals into
// per-layer samples. A nil *opTrace is the untraced pass.
type opTrace struct {
	rec *obs.Recorder // trace sink of the operation's planners

	plans, layers, contracted int
	makespan                  float64
	busy, wall                time.Duration
	collectives               int
}

func newOpTrace(p *probe) *opTrace {
	if p == nil {
		return nil
	}
	return &opTrace{rec: obs.New(0)}
}

// observe records the operation's totals. tasks and refMS describe the
// problem: its source tasks and the plain single-threaded run.
func (t *opTrace) observe(p *probe, tasks int, refMS float64) {
	observePlanCounters(p, t.rec.Metrics(), nil)
	p.observe("plan.cold_plans", float64(t.plans))
	p.observe("core.predicted_makespan_s", t.makespan)
	p.observe("graph.layers", float64(t.layers))
	p.observe("graph.contracted_tasks", float64(t.contracted))
	p.observe("runtime.collectives", float64(t.collectives))
	p.observe("runtime.work_core_ms", millis(t.busy))
	p.observe("runtime.efficiency", float64(t.busy)/float64(time.Duration(ranks)*t.wall))
	p.observe("runtime.ns_per_task", float64(t.wall.Nanoseconds())/float64(tasks))
	p.observe("ode.reference_ms", refMS)
	p.observe("ode.speedup", refMS/millis(t.wall))
}

// coldPlan plans g on m with a fresh planner (nothing cached, no family to
// patch) inside a "plan.cold" span and checks the schedule and mapping
// invariants.
func coldPlan(ctx context.Context, p *probe, ot *opTrace, parent, rep int, g *graph.Graph, m *arch.Machine) (*core.Mapping, error) {
	var opts []plan.Option
	if ot != nil {
		opts = append(opts, plan.WithTrace(ot.rec))
	}
	sp := p.begin("plan.cold", parent, rep)
	mp, err := plan.New().Plan(ctx, g, m, opts...)
	p.end(sp)
	if err != nil {
		return nil, err
	}
	if err := mp.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("schedule invariant: %w", err)
	}
	if err := mp.Validate(); err != nil {
		return nil, fmt.Errorf("mapping invariant: %w", err)
	}
	if ot != nil {
		ot.plans++
		ot.makespan += mp.Schedule.Time
		ot.layers += len(mp.Schedule.Layers)
		ot.contracted += mp.Schedule.Graph.Len()
	}
	return mp, nil
}

// execute runs the schedule on a fresh world inside a "runtime.exec" span.
func execute(ctx context.Context, p *probe, ot *opTrace, parent, rep int, sched *core.Schedule,
	body func(*graph.Task) runtime.TaskFunc, opts ...runtime.ExecOption) (*runtime.Report, error) {

	w, err := runtime.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	sp := p.begin("runtime.exec", parent, rep)
	report, err := runtime.ExecuteCtx(ctx, w, sched, body, opts...)
	p.end(sp)
	if err != nil {
		return nil, fmt.Errorf("executing %q: %w", sched.Source.Name, err)
	}
	if ot != nil {
		busy, _, _ := report.Utilization()
		ot.busy += busy
		ot.wall += report.Wall
		ot.collectives += w.Stats.Total()
	}
	return report, nil
}

// observePlanCounters turns the planner's trace counters (the delta
// against before, when given) into per-layer samples.
func observePlanCounters(p *probe, now, before map[string]int64) {
	d := func(name string) float64 { return float64(now[name] - before[name]) }
	hits, misses := d("plan.cache_hits"), d("plan.cache_misses")
	if hits+misses > 0 {
		p.observe("plan.cache_hit_ratio", hits/(hits+misses))
	}
	if mh, mm := d("cost.memo_hits"), d("cost.memo_misses"); mh+mm > 0 {
		p.observe("cost.memo_hit_ratio", mh/(mh+mm))
	}
	p.observe("core.candidates", d("plan.candidates"))
	p.observe("plan.coalesced", d("plan.coalesced"))
}

// replayPlanStages times the stages of a cold plan standalone on the same
// input, as children of the caller's "replay" span: the graph passes the
// scheduler starts with, the scheduler and mapper as the planner
// configures them, the precedence build the wavefront dispatcher needs,
// and the fingerprints every planner lookup computes.
func replayPlanStages(ctx context.Context, p *probe, root, rep int, g *graph.Graph, m *arch.Machine, cores int) (*core.Schedule, error) {
	timed := func(name string, fn func() error) error {
		sp := p.begin(name, root, rep)
		defer p.end(sp)
		return fn()
	}
	var contracted *graph.ContractionResult
	var sched *core.Schedule
	steps := []struct {
		name string
		fn   func() error
	}{
		{"graph.validate", g.Validate},
		{"graph.contract", func() error { contracted = graph.ContractChains(g); return nil }},
		{"graph.layers", func() error { graph.Layers(contracted.Graph); return nil }},
		{"core.schedule", func() (err error) {
			s := &core.Scheduler{
				Model:    (&cost.Model{Machine: m}).WithMemo(),
				Parallel: stdruntime.GOMAXPROCS(0),
			}
			sched, err = s.ScheduleCtx(ctx, g, cores)
			return err
		}},
		{"core.map", func() error { _, err := core.MapCtx(ctx, sched, m, core.Consecutive{}); return err }},
		{"core.precedence", func() error { _, err := core.PrecedenceOf(sched); return err }},
		{"plan.fingerprint", func() error { plan.GraphFingerprint(g); plan.MachineFingerprint(m); return nil }},
	}
	for _, st := range steps {
		if err := timed(st.name, st.fn); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", st.name, err)
		}
	}
	return sched, nil
}

// replayHit times a schedule-cache hit on a planner that already holds g.
func replayHit(ctx context.Context, p *probe, parent, rep int, warm *plan.Planner, g *graph.Graph, m *arch.Machine) error {
	var info plan.Info
	sp := p.begin("plan.hit", parent, rep)
	_, err := warm.Plan(ctx, g, m, plan.WithInfo(&info))
	p.end(sp)
	if err != nil {
		return err
	}
	if !info.CacheHit {
		return fmt.Errorf("warm planner missed its cache on %q", g.Name)
	}
	return nil
}

// criticalPath is the realized span of an execution: the longest path
// through the schedule's precedence DAG (data and rank-occupancy
// dependences) weighted by the measured task times.
func criticalPath(prec *core.Precedence, spans []runtime.TaskSpan) time.Duration {
	// The report names source tasks; a scheduled node runs the members of
	// its contracted chain back to back, so its time is their sum.
	sched := prec.Sched
	ids := make(map[string]graph.TaskID, sched.Source.Len())
	for _, t := range sched.Source.Tasks() {
		ids[t.Name] = t.ID
	}
	dur := make([]time.Duration, len(prec.Tasks))
	for _, s := range spans {
		if id, ok := ids[s.Name]; ok {
			dur[sched.NodeOf[id]] += s.Duration()
		}
	}
	// Scheduled is layer-major, then group, then slot, and every dependence
	// lies in an earlier layer or an earlier slot of the same group: a
	// topological order.
	finish := make([]time.Duration, len(prec.Tasks))
	var longest time.Duration
	for _, id := range prec.Scheduled {
		var ready time.Duration
		for _, dep := range prec.Tasks[id].Deps {
			if finish[dep] > ready {
				ready = finish[dep]
			}
		}
		finish[id] = ready + dur[id]
		if finish[id] > longest {
			longest = finish[id]
		}
	}
	return longest
}

// replayExec executes the schedule once more, standalone, with its timeline
// kept and the goroutine count sampled, and returns the realized critical
// path and the goroutine peak. The measured run does neither: it drops the
// timeline where it must stay lean, and the sampler's timer changes how fast
// parked rank workers wake up (measured: -8% on lib-wavefront's execution).
func replayExec(ctx context.Context, sched *core.Schedule, body func(*graph.Task) runtime.TaskFunc,
	opts ...runtime.ExecOption) (span time.Duration, peak int, err error) {

	w, err := runtime.NewWorld(ranks)
	if err != nil {
		return 0, 0, err
	}
	stopWatch := watchGoroutines()
	report, err := runtime.ExecuteCtx(ctx, w, sched, body, opts...)
	peak = stopWatch()
	if err != nil {
		return 0, 0, fmt.Errorf("replaying %q with a timeline: %w", sched.Source.Name, err)
	}
	prec, err := core.PrecedenceOf(sched)
	if err != nil {
		return 0, 0, err
	}
	return criticalPath(prec, report.Spans), peak, nil
}

// watchGoroutines samples the process's goroutine count until stopped and
// returns the peak above the count at the start.
func watchGoroutines() (stop func() int) {
	base := stdruntime.NumGoroutine()
	var peak atomic.Int64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if n := int64(stdruntime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	return func() int {
		close(quit)
		<-done
		// The sampler itself is one of the goroutines it counted.
		if extra := int(peak.Load()) - base - 1; extra > 0 {
			return extra
		}
		return 0
	}
}

// probeCollectives times the three collectives the solver bodies use on a
// world of the benchmark's size, in nanoseconds per operation.
func probeCollectives(p *probe) error {
	w, err := runtime.NewWorld(ranks)
	if err != nil {
		return err
	}
	const rounds = 2000
	block := make([]float64, 1024)
	for _, op := range []struct {
		metric string
		fn     func(c *runtime.Comm, scratch []float64)
	}{
		{"runtime.barrier_ns", func(c *runtime.Comm, _ []float64) { c.Barrier() }},
		{"runtime.allgather_ns", func(c *runtime.Comm, dst []float64) { c.AllgatherInto(block, dst) }},
		{"runtime.allreduce_ns", func(c *runtime.Comm, _ []float64) { c.AllreduceMax(float64(c.Rank())) }},
	} {
		t0 := time.Now()
		w.Run(func(c *runtime.Comm) {
			scratch := make([]float64, ranks*len(block))
			for i := 0; i < rounds; i++ {
				op.fn(c, scratch)
			}
		})
		p.observe(op.metric, float64(time.Since(t0).Nanoseconds())/rounds)
	}
	return nil
}
